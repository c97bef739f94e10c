#pragma once
// Output checks of the benchmark. Each one recomputes what it checks from
// the benchmark's own arithmetic (own nuclear repulsion, own one-electron
// matrices, an unscreened scalar ERI loop) rather than trusting the code
// under test, and returns its verdict instead of recording it, so the
// smoke mode can show that each check rejects a corrupted output.

#include <string>

#include "basis/basis_set.hpp"
#include "bench_util.hpp"
#include "chem/molecule.hpp"
#include "ints/eri.hpp"
#include "la/matrix.hpp"

namespace perfbench {

struct Verdict {
  bool ok = false;
  std::string detail;
};

/// |Tr(D S) - nelec| <= 1e-8 * nelec, S from ints::overlap_matrix.
Verdict check_electron_count(const basis::BasisSet& bs, const la::Matrix& d,
                             int nelec);

/// max |F D S - S D F| <= tol: the converged density commutes with the
/// Fock matrix it was diagonalised from.
Verdict check_commutator(const basis::BasisSet& bs, const la::Matrix& f,
                         const la::Matrix& d, double tol);

/// E = 1/2 Tr[D (H + F)] + V_nn with H from the benchmark's own
/// ints::core_hamiltonian call and V_nn summed here; D is the density F
/// was built from. Agreement within `tol` Eh.
Verdict check_energy(const chem::Molecule& mol, const basis::BasisSet& bs,
                     const la::Matrix& f, const la::Matrix& d, double energy,
                     double tol);

/// Screening-error budget of one SCF job's accumulated Fock matrix, as
/// recorded by the benchmark's FockBuilder decorator since the last full
/// rebuild (see FockRecorder in workloads.hpp).
struct ScreeningBudget {
  double threshold = 1e-10;
  double incremental_scale = 0.01;
  /// Sum over builds since the last full rebuild of max|D passed|.
  double density_max_sum = 0.0;
  /// Quartets killed by density-weighted screening in those builds.
  double density_screened = 0.0;
};

/// F - H against G(D) from an unscreened, unbatched loop of scalar
/// EriEngine::compute + scatter_quartet over every canonical quartet.
/// The allowed difference is derived from the Schwarz threshold: a
/// statically skipped quartet (Q_ij Q_kl < threshold, Q recomputed here
/// from (ij|ij)) of n components can move an element by at most
/// 12 n Q_ij Q_kl max|D| per build, and a density-screened quartet of an
/// incremental build by at most 3 n threshold * scale.
Verdict check_fock_reference(const chem::Molecule& mol,
                             const basis::BasisSet& bs,
                             const ints::EriEngine& eri, const la::Matrix& f,
                             const la::Matrix& d,
                             const ScreeningBudget& budget);

/// |a - b| <= tol, with a label for the detail text.
Verdict check_close(const std::string& what, double a, double b, double tol);

}  // namespace perfbench
