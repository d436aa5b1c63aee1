#include "cedr/apps/dag_apps.h"

#include <cmath>

#include "cedr/api/impls.h"
#include "cedr/kernels/fft.h"
#include "cedr/kernels/wifi.h"

namespace cedr::apps {
namespace {

/// Mutable working set of one Pulse Doppler DAG instance; every task
/// implementation closes over one shared instance of this.
struct PdState {
  PulseDopplerConfig cfg;
  kernels::RadarTarget truth;
  std::vector<cfloat> chirp_padded;
  std::vector<cfloat> chirp_freq;
  std::vector<cfloat> cube;        // [pulse][sample]
  std::vector<cfloat> pulse_freq;  // [pulse][sample]
  std::vector<cfloat> compressed;  // [pulse][sample]
  std::vector<cfloat> slow_time;   // [range][pulse]
  std::vector<cfloat> doppler;     // [range][pulse]
  PulseDopplerResult result;
};

}  // namespace

StatusOr<PulseDopplerDag> make_pulse_doppler_dag(
    const PulseDopplerConfig& cfg) {
  const std::size_t n = cfg.params.samples_per_pulse;
  const std::size_t pulses = cfg.params.num_pulses;
  if (!is_power_of_two(n) || !is_power_of_two(pulses)) {
    return InvalidArgument("pulse/sample counts must be powers of two");
  }

  auto state = std::make_shared<PdState>();
  state->cfg = cfg;
  state->truth = cfg.truth;
  state->truth.velocity_mps = state->truth.doppler_hz *
                              cfg.params.speed_of_light /
                              (2.0 * cfg.params.carrier_hz);
  Rng rng(cfg.seed);
  const std::vector<cfloat> chirp =
      kernels::make_chirp(n / 4, 0.4 * cfg.params.sample_rate_hz,
                          cfg.params.sample_rate_hz);
  state->cube = kernels::synthesize_echo(cfg.params, chirp, state->truth,
                                         cfg.noise_stddev, rng);
  state->chirp_padded.assign(n, cfloat(0.0f, 0.0f));
  std::copy(chirp.begin(), chirp.end(), state->chirp_padded.begin());
  state->chirp_freq.resize(n);
  state->pulse_freq.resize(pulses * n);
  state->compressed.resize(pulses * n);
  state->slow_time.resize(pulses * n);
  state->doppler.resize(pulses * n);

  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "pulse_doppler_dag";
  std::vector<api::ImplArray> impls;
  task::TaskId next_id = 0;

  // Tasks take sequential ids, so storage index == id == impls position.
  auto add_node = [&](std::string name, platform::KernelId kernel,
                      std::size_t size, std::size_t bytes,
                      api::ImplArray task_impls) {
    task::Task t;
    t.id = next_id++;
    t.name = std::move(name);
    t.kernel = kernel;
    t.problem_size = size;
    t.data_bytes = bytes;
    const Status s = app->graph.add_task(std::move(t));
    (void)s;  // ids are sequential, duplicates impossible
    impls.push_back(std::move(task_impls));
    return next_id - 1;
  };

  // Node 0: reference chirp spectrum.
  const task::TaskId chirp_fft = add_node(
      "chirp_fft", platform::KernelId::kFft, n, 2 * n * sizeof(cfloat),
      api::make_fft_impls(state->chirp_padded.data(), state->chirp_freq.data(),
                          n, /*inverse=*/false));

  // Range compression chains, one per pulse.
  std::vector<task::TaskId> ifft_nodes;
  ifft_nodes.reserve(pulses);
  for (std::size_t p = 0; p < pulses; ++p) {
    const cfloat* in = &state->cube[p * n];
    cfloat* freq = &state->pulse_freq[p * n];
    cfloat* out = &state->compressed[p * n];
    const task::TaskId fft_p = add_node(
        "range_fft_" + std::to_string(p), platform::KernelId::kFft, n,
        2 * n * sizeof(cfloat),
        api::make_fft_impls(in, freq, n, /*inverse=*/false));
    const task::TaskId zip_p = add_node(
        "match_zip_" + std::to_string(p), platform::KernelId::kZip, n,
        3 * n * sizeof(cfloat),
        api::make_zip_impls(freq, state->chirp_freq.data(), freq, n,
                            kernels::ZipOp::kConjugateMultiply));
    const task::TaskId ifft_p = add_node(
        "range_ifft_" + std::to_string(p), platform::KernelId::kIfft, n,
        2 * n * sizeof(cfloat),
        api::make_fft_impls(freq, out, n, /*inverse=*/true));
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(fft_p, zip_p));
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(chirp_fft, zip_p));
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(zip_p, ifft_p));
    ifft_nodes.push_back(ifft_p);
  }

  // Corner turn (CPU glue): [pulse][range] -> [range][pulse].
  const task::TaskId corner = add_node(
      "corner_turn", platform::KernelId::kGeneric, pulses * n, 0,
      api::make_generic_impls([state, pulses, n] {
        for (std::size_t p = 0; p < pulses; ++p) {
          for (std::size_t r = 0; r < n; ++r) {
            state->slow_time[r * pulses + p] = state->compressed[p * n + r];
          }
        }
      }));
  for (const task::TaskId node : ifft_nodes) {
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(node, corner));
  }

  // Doppler FFT per range bin.
  std::vector<task::TaskId> doppler_nodes;
  doppler_nodes.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const task::TaskId d = add_node(
        "doppler_fft_" + std::to_string(r), platform::KernelId::kFft, pulses,
        2 * pulses * sizeof(cfloat),
        api::make_fft_impls(&state->slow_time[r * pulses],
                            &state->doppler[r * pulses], pulses,
                            /*inverse=*/false));
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(corner, d));
    doppler_nodes.push_back(d);
  }

  // Final peak search (CPU glue).
  const task::TaskId peak = add_node(
      "peak_search", platform::KernelId::kGeneric, pulses * n, 0,
      api::make_generic_impls([state, pulses, n] {
        std::vector<cfloat> range_doppler(pulses * n);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t d = 0; d < pulses; ++d) {
            range_doppler[d * n + r] = state->doppler[r * pulses + d];
          }
        }
        PulseDopplerResult& res = state->result;
        res.truth = state->truth;
        res.estimate = kernels::find_peak(range_doppler, state->cfg.params);
        res.velocity_error_mps =
            std::abs(res.estimate.velocity_mps - res.truth.velocity_mps);
        res.range_correct =
            std::llabs(static_cast<long long>(res.estimate.range_bin) -
                       static_cast<long long>(res.truth.range_bin)) <= 1;
      }));
  for (const task::TaskId node : doppler_nodes) {
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(node, peak));
  }

  PulseDopplerDag dag;
  dag.submission = {.descriptor = std::move(app), .impls = std::move(impls)};
  dag.result = [state] { return state->result; };
  return dag;
}

namespace {

struct TxState {
  WifiTxConfig cfg;
  std::vector<std::vector<cfloat>> grids;
  WifiTxResult result;
};

/// CPU glue of one WiFi TX packet, shared with the API-based variant's
/// logic (duplicated here deliberately: DAG apps ship their own node code
/// in the shared object).
Status build_grid(TxState& state, std::size_t p) {
  using namespace cedr::kernels;
  const WifiTxConfig& cfg = state.cfg;
  BitVec scrambled =
      scramble(state.result.payloads[p], cfg.scrambler_seed);
  scrambled.insert(scrambled.end(), 6, 0);
  const BitVec coded = convolutional_encode(scrambled);
  auto interleaved = interleave(coded, 7);
  if (!interleaved.ok()) return interleaved.status();
  auto symbols = qpsk_modulate(*interleaved);
  if (!symbols.ok()) return symbols.status();
  if (symbols->size() > cfg.ofdm_size) {
    return InvalidArgument("payload does not fit the OFDM symbol");
  }
  auto& grid = state.grids[p];
  grid.assign(cfg.ofdm_size, cfloat(0.0f, 0.0f));
  std::copy(symbols->begin(), symbols->end(), grid.begin());
  return Status::Ok();
}

}  // namespace

StatusOr<WifiTxDag> make_wifi_tx_dag(const WifiTxConfig& cfg) {
  if (!is_power_of_two(cfg.ofdm_size)) {
    return InvalidArgument("OFDM size must be a power of two");
  }
  if (cfg.payload_bits % 8 != 0 || cfg.payload_bits == 0) {
    return InvalidArgument("payload bits must be a positive multiple of 8");
  }
  auto state = std::make_shared<TxState>();
  state->cfg = cfg;
  state->grids.resize(cfg.num_packets);
  state->result.symbols.assign(cfg.num_packets,
                               std::vector<cfloat>(cfg.ofdm_size));
  state->result.payloads.resize(cfg.num_packets);
  Rng rng(cfg.seed);
  for (std::size_t p = 0; p < cfg.num_packets; ++p) {
    state->result.payloads[p].resize(cfg.payload_bits);
    for (auto& bit : state->result.payloads[p]) {
      bit = static_cast<std::uint8_t>(rng.next_below(2));
    }
    // Grids are built inside DAG glue nodes at execution time, but buffer
    // storage must exist now for the IFFT impls to capture stable pointers.
    state->grids[p].assign(cfg.ofdm_size, cfloat(0.0f, 0.0f));
  }

  auto app = std::make_shared<task::AppDescriptor>();
  app->name = "wifi_tx_dag";
  std::vector<api::ImplArray> impls;
  task::TaskId next_id = 0;
  for (std::size_t p = 0; p < cfg.num_packets; ++p) {
    task::Task glue;
    glue.id = next_id++;
    glue.name = "packet_glue_" + std::to_string(p);
    glue.kernel = platform::KernelId::kGeneric;
    glue.problem_size = 30'000;  // ~30 us of reference-core work
    CEDR_RETURN_IF_ERROR(app->graph.add_task(std::move(glue)));
    impls.push_back(api::make_generic_impls([state, p] {
      const Status s = build_grid(*state, p);
      if (!s.ok()) state->result.symbols[p].clear();
    }));

    task::Task ifft;
    ifft.id = next_id++;
    ifft.name = "ofdm_ifft_" + std::to_string(p);
    ifft.kernel = platform::KernelId::kIfft;
    ifft.problem_size = cfg.ofdm_size;
    ifft.data_bytes = 2 * cfg.ofdm_size * sizeof(cfloat);
    CEDR_RETURN_IF_ERROR(app->graph.add_task(std::move(ifft)));
    impls.push_back(api::make_fft_impls(state->grids[p].data(),
                                        state->result.symbols[p].data(),
                                        cfg.ofdm_size, /*inverse=*/true));
    CEDR_RETURN_IF_ERROR(app->graph.add_edge(next_id - 2, next_id - 1));
  }

  WifiTxDag dag;
  dag.submission = {.descriptor = std::move(app), .impls = std::move(impls)};
  dag.result = [state] { return state->result; };
  return dag;
}

}  // namespace cedr::apps
