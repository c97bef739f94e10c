#include "checks.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "ints/one_electron.hpp"
#include "la/blas_lite.hpp"
#include "scf/fock_builder.hpp"

namespace perfbench {

namespace {

std::string fmt(const char* f, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof buf, f, a, b);
  return buf;
}

double own_nuclear_repulsion(const chem::Molecule& mol) {
  double e = 0.0;
  for (std::size_t a = 0; a < mol.natoms(); ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      double r2 = 0.0;
      for (std::size_t k = 0; k < 3; ++k) {
        const double dx = mol.atom(a).xyz[k] - mol.atom(b).xyz[k];
        r2 += dx * dx;
      }
      e += mol.atom(a).z * mol.atom(b).z / std::sqrt(r2);
    }
  }
  return e;
}

}  // namespace

Verdict check_electron_count(const basis::BasisSet& bs, const la::Matrix& d,
                             int nelec) {
  const la::Matrix s = ints::overlap_matrix(bs);
  const double tr = la::dot(d, s);  // Tr(D S) for symmetric S
  const double err = std::abs(tr - nelec);
  return {err <= 1e-8 * nelec, fmt("Tr(DS) %.12f vs %.0f electrons", tr,
                                   static_cast<double>(nelec))};
}

Verdict check_commutator(const basis::BasisSet& bs, const la::Matrix& f,
                         const la::Matrix& d, double tol) {
  const la::Matrix s = ints::overlap_matrix(bs);
  const la::Matrix fds = la::gemm(f, la::gemm(d, s));
  const la::Matrix sdf = la::gemm(s, la::gemm(d, f));
  const double err = fds.max_abs_diff(sdf);
  return {err <= tol, fmt("max|FDS-SDF| %.3e (bound %.3e)", err, tol)};
}

Verdict check_energy(const chem::Molecule& mol, const basis::BasisSet& bs,
                     const la::Matrix& f, const la::Matrix& d, double energy,
                     double tol) {
  const la::Matrix h = ints::core_hamiltonian(bs, mol);
  const double e =
      0.5 * (la::dot(d, h) + la::dot(d, f)) + own_nuclear_repulsion(mol);
  return {std::abs(e - energy) <= tol,
          fmt("recomputed energy %.12f vs reported %.12f", e, energy)};
}

Verdict check_fock_reference(const chem::Molecule& mol,
                             const basis::BasisSet& bs,
                             const ints::EriEngine& eri, const la::Matrix& f,
                             const la::Matrix& d,
                             const ScreeningBudget& budget) {
  const std::size_t ns = bs.nshells();
  std::vector<double> buf;
  // Schwarz factors recomputed from the diagonal (ij|ij) batches.
  std::vector<double> q(ns * ns, 0.0);
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      const std::size_t n = eri.batch_size(i, j, i, j);
      buf.resize(n);
      eri.compute(i, j, i, j, buf.data());
      const std::size_t nij = static_cast<std::size_t>(
          bs.shell(i).nfunc() * bs.shell(j).nfunc());
      double m = 0.0;
      for (std::size_t ab = 0; ab < nij; ++ab) {
        m = std::max(m, std::abs(buf[ab * nij + ab]));  // (ab|ab)
      }
      q[i * ns + j] = q[j * ns + i] = std::sqrt(m);
    }
  }
  // Every component of a skipped quartet is bounded by Q_ij Q_kl, and
  // scatter_quartet moves at most 1.5 * 8 * |v| * max|D| of absolute
  // matrix mass per component; summed, that bounds any single element.
  la::Matrix g(bs.nbf(), bs.nbf());
  double skipped_mass = 0.0;
  for (std::size_t i = 0; i < ns; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      scf::for_each_kl(i, j, [&](std::size_t k, std::size_t l) {
        const std::size_t n = eri.batch_size(i, j, k, l);
        const double qq = q[i * ns + j] * q[k * ns + l];
        if (qq < budget.threshold) skipped_mass += static_cast<double>(n) * qq;
        buf.resize(n);
        eri.compute(i, j, k, l, buf.data());
        scf::scatter_quartet(bs, i, j, k, l, buf.data(), d, g);
      });
    }
  }
  g.symmetrize();
  la::Matrix fg = f;
  fg -= ints::core_hamiltonian(bs, mol);
  const double err = fg.max_abs_diff(g);
  // A density-screened quartet has Q_ij Q_kl * 4 max|dD block| below
  // threshold * scale, so it moves at most 3 * ncomp * threshold * scale.
  const double ncomp_max = std::pow(bs.max_shell_size(), 4);
  const double bound =
      12.0 * skipped_mass * budget.density_max_sum +
      3.0 * ncomp_max * budget.threshold * budget.incremental_scale *
          budget.density_screened +
      1e-10;
  return {err <= bound,
          fmt("max|F-H-G_ref(D)| %.3e (Schwarz-derived bound %.3e)", err,
              bound)};
}

Verdict check_close(const std::string& what, double a, double b, double tol) {
  return {std::abs(a - b) <= tol,
          what + fmt(": %.12f vs %.12f", a, b) +
              fmt(" (|diff| %.2e, tol %.0e)", std::abs(a - b), tol)};
}

}  // namespace perfbench
