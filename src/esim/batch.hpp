// Batched structure-of-arrays transient solver.
//
// The paper's V_min(tau) characterization is a Monte-Carlo sweep over
// process parameters of ONE fixed sensor topology: every sample shares the
// circuit structure, the MNA stamp pattern, the sparse fill pattern and the
// frozen pivot order, and differs only in device parameter values and
// source waveforms.  BatchSimulator exploits that: it evaluates K
// structure-identical samples ("lanes") at once, with every per-unknown and
// per-device quantity stored lane-contiguous (`slot * K + lane`), so
//
//  * level-1 MOSFET evaluation, residual accumulation and Newton updates
//    are plain dense loops over the lane axis that auto-vectorize,
//  * the Jacobian template memcpy covers all lanes at once, and
//  * LU refactorization and the triangular solves replay ONE frozen
//    symbolic factorization as blocked multi-RHS sweeps (esim::BatchLu).
//
// Numerics contract: each lane runs the SAME algorithm as the scalar
// Simulator — identical Newton protocol (damping, vtol/itol, the
// residual-check trip), identical fixed-step transient loop (per-lane
// breakpoints, sliver skipping, the post-breakpoint backward-Euler step,
// in-batch trapezoidal -> BE retry), identical companion-model updates.
// Lanes do NOT share a time grid: each advances on its own breakpoint
// schedule, so a lane's trajectory matches what the scalar solver would
// compute up to floating-point association differences (<= ~1e-9 on the
// sensor benches; tests/esim/test_batch.cpp pins the bound).
//
// Divergence handling: batching freezes the decisions the scalar solver
// makes adaptively (pivot order, DC continuation ladder, dt halving).  A
// lane that needs any of them — a degenerate frozen pivot, a rejected
// Newton step after the BE retry, a DC solve that wants the gmin/source
// ladder — falls out of the batch and is re-run on the scalar Simulator
// (the golden path, including its ConvergenceError reporting and
// postmortem bundles); its result is spliced back in lane order.  The
// batch itself never throws for a lane failure.
//
// A BatchSimulator is share-nothing like the scalar Simulator: campaign
// drivers run one instance per worker with no locking.
#pragma once

#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "esim/engine.hpp"
#include "esim/netlist.hpp"

namespace sks::esim {

// Per-lane run outcome.  `result` is valid when `simulated`; a lane whose
// scalar fallback raised ConvergenceError reports it here instead of
// throwing (mirroring how the campaign layers treat unsimulated samples).
struct BatchLaneOutcome {
  TransientResult result;
  bool simulated = false;
  bool fell_back = false;  // retired from the batch to the scalar Simulator
  std::string failure;     // ConvergenceError message when !simulated
  std::string bundle;      // postmortem bundle path, when one was written
};

// Per-run batch telemetry, also mirrored into the obs registry counters
// batch.lanes / batch.fallbacks / batch.refactorizations.
struct BatchRunStats {
  std::size_t lanes = 0;
  std::size_t fallbacks = 0;
  // SoA refactorization sweeps; each covers every lane, so the scalar-
  // equivalent count is refactor_passes * lanes.
  std::size_t refactor_passes = 0;
};

class BatchSimulator {
 public:
  // All lane circuits must be pairwise structure_compatible(); checked.
  // Lane order is preserved through to run_transients() results.
  explicit BatchSimulator(std::vector<Circuit> lanes);
  ~BatchSimulator();
  BatchSimulator(BatchSimulator&&) noexcept;
  BatchSimulator& operator=(BatchSimulator&&) noexcept;

  // Same topology test the batch requires: equal node counts, equal device
  // counts per kind, and every device connected to the same node indices.
  // Parameter values (including MOSFET channel type — the sign is a
  // per-lane parameter), fault modes and source waveforms are free to
  // differ per lane.
  static bool structure_compatible(const Circuit& a, const Circuit& b);

  std::size_t lanes() const;

  // Run one fixed-step transient per lane (options[i] drives lane i; one
  // entry total is also accepted and broadcast).  Lanes requesting
  // adaptive timestepping are retired to the scalar path immediately — the
  // batch only locks steps for the fixed-dt schedule the MC sweep uses.
  std::vector<BatchLaneOutcome> run_transients(
      const std::vector<TransientOptions>& options);

  const BatchRunStats& last_batch_stats() const;

  // Test hook (tests/esim/test_batch.cpp): make every Newton attempt of
  // `lane` whose target time reaches `t` fail, forcing the in-batch BE
  // retry and then the scalar fallback for that lane mid-transient.
  void force_step_rejection_for_test(std::size_t lane, double t);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

// Lane-width resolution for batched runs: `requested`
// wins when nonzero; otherwise the SKS_BATCH environment variable ("0",
// "1" or "off" disable batching, an integer >= 2 sets the width); otherwise
// `auto_default`.  The result is clamped to [1, kMaxBatchLanes]; 1 means
// "use the scalar path".
std::size_t resolve_batch_lanes(std::size_t requested,
                                std::size_t auto_default);

// 32 lanes measured fastest per sample on the fig5 population (the
// per-round sparse-structure traversal amortizes across the lane stripe;
// 64 regresses from cache pressure — see EXPERIMENTS.md).
inline constexpr std::size_t kDefaultBatchLanes = 32;
inline constexpr std::size_t kMaxBatchLanes = 64;

}  // namespace sks::esim
