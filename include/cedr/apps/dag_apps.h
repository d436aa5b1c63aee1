#pragma once
// DAG-based application variants (the pre-CEDR-API programming model).
//
// These builders produce the shared-object + JSON-DAG equivalent of the
// API-based applications: every schedulable operation is one DAG node, its
// per-PE-class implementations sit in the submission's impl arrays, and
// temporal dependencies are explicit edges. They exist so the repository
// can compare the two programming models functionally (tests) and in timing
// (sim/, bench/) exactly as the paper does.
//
// Each call returns a fresh submission with freshly allocated working
// buffers captured inside the task implementations, so one submission
// corresponds to one application instance (as in CEDR, where each submitted
// instance gets its own state).

#include <functional>

#include "cedr/apps/pulse_doppler.h"
#include "cedr/apps/wifi_tx.h"
#include "cedr/common/status.h"
#include "cedr/runtime/runtime.h"

namespace cedr::apps {

/// A DAG application instance, ready for Runtime::submit_dag, plus an
/// accessor for its end-to-end result.
struct PulseDopplerDag {
  rt::DagSubmission submission;
  /// Valid after the runtime reports the instance complete.
  std::function<PulseDopplerResult()> result;
};

/// Pulse Doppler as a DAG:
///   chirp_fft -> {fft_p -> zip_p -> ifft_p} per pulse -> corner_turn
///   -> doppler_fft per range bin -> peak_search
/// Node count: 2 + 3*pulses + samples_per_pulse.
StatusOr<PulseDopplerDag> make_pulse_doppler_dag(const PulseDopplerConfig& cfg);

struct WifiTxDag {
  rt::DagSubmission submission;
  std::function<WifiTxResult()> result;
};

/// WiFi TX as a DAG: {packet_glue_p -> ifft_p} per packet.
/// Node count: 2*num_packets.
StatusOr<WifiTxDag> make_wifi_tx_dag(const WifiTxConfig& cfg);

}  // namespace cedr::apps
