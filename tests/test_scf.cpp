// SCF validation: reference energies from the literature, internal
// invariants (idempotency, rotational invariance), DIIS behaviour, and the
// equivalence of the serial skeleton builder with the brute-force builder.

#include <gtest/gtest.h>

#include <cmath>

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "common/error.hpp"
#include "ints/eri.hpp"
#include "ints/one_electron.hpp"
#include "ints/screening.hpp"
#include "la/blas_lite.hpp"
#include "la/orthogonalizer.hpp"
#include "scf/diis.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"
#include "pair_index.hpp"

namespace mc::scf {
namespace {

ScfResult run_serial(const chem::Molecule& mol, const std::string& basis,
                     ScfOptions opt = {}) {
  auto bs = basis::BasisSet::build(mol, basis);
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  return run_scf(mol, bs, builder, opt);
}

// The standard tutorial geometry (T. D. Crawford's programming projects),
// coordinates in Bohr; STO-3G RHF total energy -74.942079928192 Eh.
chem::Molecule water_crawford() {
  chem::Molecule m;
  m.add_atom(8, 0.000000000000, -0.143225816552, 0.000000000000);
  m.add_atom(1, 1.638036840407, 1.136548822547, 0.000000000000);
  m.add_atom(1, -1.638036840407, 1.136548822547, 0.000000000000);
  return m;
}

TEST(Scf, H2Sto3gMatchesSzaboOstlund) {
  // Szabo & Ostlund, Table 3.5: H2 at R = 1.4 a0, STO-3G: E = -1.1167 Eh.
  ScfResult r = run_serial(chem::builders::h2(1.4), "STO-3G");
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -1.1167, 2e-4);
  // Occupied orbital energy about -0.578 Eh.
  EXPECT_NEAR(r.orbital_energies[0], -0.578, 5e-3);
}

TEST(Scf, HeHPlusSto3gMatchesSzaboOstlund) {
  // Szabo & Ostlund: HeH+ at R = 1.4632 a0, STO-3G: E_total ~ -2.841 Eh
  // for scaled exponents; with standard STO-3G tables the value is near
  // -2.84 to -2.86. Assert the robust range and convergence behaviour.
  ScfOptions opt;
  opt.charge = +1;
  ScfResult r = run_serial(chem::builders::heh_plus(), "STO-3G", opt);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -2.85, 0.03);
}

TEST(Scf, WaterSto3gMatchesCrawfordReference) {
  ScfResult r = run_serial(water_crawford(), "STO-3G");
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.energy, -74.942079928192, 1e-6);
  // Nuclear repulsion for this geometry is 8.002367061811 Eh.
  EXPECT_NEAR(r.nuclear_repulsion, 8.002367061811, 1e-9);
}

TEST(Scf, MethaneSto3gInKnownRange) {
  ScfResult r = run_serial(chem::builders::methane(), "STO-3G");
  EXPECT_TRUE(r.converged);
  // Literature RHF/STO-3G CH4 total energy is about -39.727 Eh.
  EXPECT_NEAR(r.energy, -39.727, 0.01);
}

TEST(Scf, Water631GIsBelowSto3g) {
  // Variational principle across basis sets (6-31G strictly larger
  // variational space per atom type here).
  ScfResult small = run_serial(chem::builders::water(), "STO-3G");
  ScfResult big = run_serial(chem::builders::water(), "6-31G");
  ScfResult pol = run_serial(chem::builders::water(), "6-31G(d)");
  EXPECT_TRUE(big.converged);
  EXPECT_TRUE(pol.converged);
  EXPECT_LT(big.energy, small.energy);
  EXPECT_LT(pol.energy, big.energy);  // d functions lower the energy further
  // 6-31G(d) water RHF energy is around -76.01 Eh in the literature.
  EXPECT_NEAR(pol.energy, -76.01, 0.02);
  // p functions on hydrogen lower it a little more (variational chain).
  ScfResult dp = run_serial(chem::builders::water(), "6-31G(d,p)");
  EXPECT_TRUE(dp.converged);
  EXPECT_LT(dp.energy, pol.energy);
  EXPECT_NEAR(dp.energy, -76.02, 0.02);
}

TEST(Scf, EnergyInvariantUnderRotationAndTranslation) {
  // Strong whole-stack test: exercises p and d integrals under rotation.
  for (const char* basis : {"STO-3G", "6-31G(d)"}) {
    ScfResult a = run_serial(chem::builders::water(), basis);
    ScfResult b = run_serial(
        chem::builders::water().rotated(0.63, 0.41).translated(1.0, 2.0, -0.5),
        basis);
    EXPECT_TRUE(a.converged);
    EXPECT_TRUE(b.converged);
    EXPECT_NEAR(a.energy, b.energy, 1e-8) << basis;
  }
}

TEST(Scf, DensityIdempotentInOverlapMetric) {
  // Converged closed-shell density satisfies D S D = 2 D.
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = run_serial(mol, "STO-3G");
  la::Matrix s = ints::overlap_matrix(bs);
  la::Matrix dsd = la::gemm(r.density, la::gemm(s, r.density));
  la::Matrix two_d = r.density;
  two_d *= 2.0;
  EXPECT_NEAR(dsd.max_abs_diff(two_d), 0.0, 1e-6);
}

TEST(Scf, TraceDSEqualsElectronCount) {
  auto mol = chem::builders::methane();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ScfResult r = run_serial(mol, "STO-3G");
  la::Matrix ds = la::gemm(r.density, ints::overlap_matrix(bs));
  EXPECT_NEAR(ds.trace(), 10.0, 1e-8);
}

TEST(Scf, KoopmansHomoIsNegativeForNeutralMolecules) {
  ScfResult r = run_serial(chem::builders::water(), "STO-3G");
  const int nocc = 5;
  EXPECT_LT(r.orbital_energies[nocc - 1], 0.0);  // HOMO bound
  EXPECT_GT(r.orbital_energies[nocc], r.orbital_energies[nocc - 1]);
}

TEST(Scf, OpenShellElectronCountRejected) {
  chem::Molecule li;
  li.add_atom(3, 0.0, 0.0, 0.0);
  EXPECT_THROW(run_serial(li, "STO-3G"), mc::Error);
}

TEST(Scf, DiisConvergesFasterThanPlainIteration) {
  auto mol = water_crawford();
  ScfOptions diis_opt;
  ScfOptions plain_opt;
  plain_opt.use_diis = false;
  plain_opt.max_iterations = 200;
  ScfResult with_diis = run_serial(mol, "STO-3G", diis_opt);
  ScfResult without = run_serial(mol, "STO-3G", plain_opt);
  EXPECT_TRUE(with_diis.converged);
  EXPECT_TRUE(without.converged);
  EXPECT_LE(with_diis.iterations, without.iterations);
  EXPECT_NEAR(with_diis.energy, without.energy, 1e-7);
}

TEST(Scf, HistoryRecordsMonotoneConvergence) {
  ScfResult r = run_serial(chem::builders::water(), "STO-3G");
  ASSERT_GE(r.history.size(), 3u);
  // Density RMS at the last iteration is below tolerance.
  EXPECT_LT(r.history.back().density_rms, 1e-8);
  // Fock build time was measured.
  EXPECT_GT(r.fock_build_seconds, 0.0);
}

TEST(Scf, CallbackSeesEveryIteration) {
  int count = 0;
  ScfCallbacks cb;
  cb.on_iteration = [&](const ScfIterationInfo& info) {
    EXPECT_EQ(info.iteration, count + 1);
    ++count;
  };
  auto mol = chem::builders::h2();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-12);
  SerialFockBuilder builder(eri, screen);
  ScfResult r = run_scf(mol, bs, builder, {}, cb);
  EXPECT_EQ(count, r.iterations);
}

TEST(Scf, DampingConvergesToSameEnergy) {
  ScfOptions plain;
  plain.use_diis = false;
  plain.max_iterations = 300;
  ScfOptions damped = plain;
  damped.damping = 0.3;
  ScfResult a = run_serial(water_crawford(), "STO-3G", plain);
  ScfResult b = run_serial(water_crawford(), "STO-3G", damped);
  ASSERT_TRUE(a.converged);
  ASSERT_TRUE(b.converged);
  EXPECT_NEAR(a.energy, b.energy, 1e-7);
}

TEST(Scf, LevelShiftConvergesToSameEnergy) {
  ScfOptions opt;
  opt.level_shift = 0.5;
  ScfResult shifted = run_serial(water_crawford(), "STO-3G", opt);
  ScfResult plain = run_serial(water_crawford(), "STO-3G");
  ASSERT_TRUE(shifted.converged);
  EXPECT_NEAR(shifted.energy, plain.energy, 1e-7);
}

TEST(Scf, LevelShiftChangesTheIterates) {
  // A shift that only relabels eigenvalues of the matrix being diagonalised
  // changes no eigenvector and so no density; a real one alters the
  // iteration-2 density (seen in its energy and the iteration-1 density
  // step) and still converges to the same energy.
  ScfOptions opt;
  opt.level_shift = 0.5;
  ScfResult shifted = run_serial(water_crawford(), "STO-3G", opt);
  ScfResult plain = run_serial(water_crawford(), "STO-3G");
  ASSERT_TRUE(shifted.converged);
  ASSERT_TRUE(plain.converged);
  ASSERT_GE(shifted.history.size(), 2u);
  ASSERT_GE(plain.history.size(), 2u);
  EXPECT_GT(std::abs(shifted.history[0].density_rms -
                     plain.history[0].density_rms),
            1e-6);
  EXPECT_GT(std::abs(shifted.history[1].energy - plain.history[1].energy),
            1e-6);
  EXPECT_NEAR(shifted.energy, plain.energy, 1e-7);
}

TEST(Scf, BadDampingRejected) {
  ScfOptions opt;
  opt.use_diis = false;
  opt.damping = 1.5;
  EXPECT_THROW(run_serial(chem::builders::h2(), "STO-3G", opt), mc::Error);
}

// ---- Builder equivalence ----

class BuilderEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(BuilderEquivalence, SkeletonMatchesBruteForce) {
  auto mol = chem::builders::water();
  auto bs = basis::BasisSet::build(mol, GetParam());
  ints::EriEngine eri(bs);
  ints::Screening screen(eri, 1e-14);

  // A plausible (non-converged) symmetric density to contract with.
  la::Matrix h = ints::core_hamiltonian(bs, mol);
  la::Matrix s = ints::overlap_matrix(bs);
  la::Matrix x = la::canonical_orthogonalizer(s);
  la::Matrix d = core_guess_density(h, x, mol.nelectrons() / 2);

  la::Matrix g1(bs.nbf(), bs.nbf());
  SerialFockBuilder serial(eri, screen);
  serial.build(d, g1);
  g1.symmetrize();

  la::Matrix g2(bs.nbf(), bs.nbf());
  BruteForceFockBuilder brute(eri);
  brute.build(d, g2);
  g2.symmetrize();  // brute result is already symmetric; harmless

  EXPECT_NEAR(g1.max_abs_diff(g2), 0.0, 1e-9) << GetParam();
  EXPECT_GT(serial.last_quartets_computed(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Bases, BuilderEquivalence,
                         ::testing::Values("STO-3G", "6-31G", "6-31G(d)"));

TEST(Scf, ScreeningDoesNotChangeEnergy) {
  auto mol = chem::builders::benzene();
  auto bs = basis::BasisSet::build(mol, "STO-3G");
  ints::EriEngine eri(bs);
  ints::Screening tight(eri, 1e-14);
  ints::Screening normal(eri, 1e-10);
  SerialFockBuilder b1(eri, tight);
  SerialFockBuilder b2(eri, normal);
  ScfResult r1 = run_scf(mol, bs, b1);
  ScfResult r2 = run_scf(mol, bs, b2);
  EXPECT_TRUE(r1.converged);
  EXPECT_TRUE(r2.converged);
  EXPECT_NEAR(r1.energy, r2.energy, 1e-7);
  // And the looser threshold actually skipped quartets.
  la::Matrix g(bs.nbf(), bs.nbf());
  b1.build(r1.density, g);
  const std::size_t tight_quartets = b1.last_quartets_computed();
  g.set_zero();
  b2.build(r1.density, g);
  EXPECT_LT(b2.last_quartets_computed(), tight_quartets);
}

// ---- Helpers: pair index round trip ----

TEST(FockCommon, PairIndexRoundTrip) {
  std::size_t pair = 0;
  for (std::size_t i = 0; i < 80; ++i) {
    for (std::size_t j = 0; j <= i; ++j, ++pair) {
      std::size_t ii, jj;
      test::unpack_pair(pair, ii, jj);
      EXPECT_EQ(ii, i);
      EXPECT_EQ(jj, j);
    }
  }
}

TEST(FockCommon, KlCountMatchesEnumeration) {
  for (std::size_t i = 0; i < 12; ++i) {
    for (std::size_t j = 0; j <= i; ++j) {
      std::size_t n = 0;
      for_each_kl(i, j, [&](std::size_t, std::size_t) { ++n; });
      EXPECT_EQ(n, kl_count(i, j));
    }
  }
}

TEST(FockCommon, QuartetDegeneracyValues) {
  EXPECT_DOUBLE_EQ(quartet_degeneracy(0, 0, 0, 0), 1.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 0, 0, 0), 4.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 0, 1, 0), 4.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(2, 1, 1, 0), 8.0);
  EXPECT_DOUBLE_EQ(quartet_degeneracy(1, 1, 0, 0), 2.0);
}

TEST(Diis, ExtrapolationReducesToSingleVector) {
  Diis diis(4);
  la::Matrix f{{1.0, 0.0}, {0.0, 2.0}};
  la::Matrix e{{0.1, 0.0}, {0.0, 0.1}};
  diis.push(f, e);
  EXPECT_NEAR(diis.extrapolate().max_abs_diff(f), 0.0, 1e-15);
}

TEST(Diis, HistoryCapRespected) {
  Diis diis(3);
  for (int i = 0; i < 10; ++i) {
    la::Matrix f{{static_cast<double>(i)}};
    la::Matrix e{{1.0 / (1 + i)}};
    diis.push(f, e);
  }
  EXPECT_EQ(diis.size(), 3u);
  diis.clear();
  EXPECT_EQ(diis.size(), 0u);
  EXPECT_THROW(diis.extrapolate(), mc::Error);
}

TEST(Diis, ExactCombinationRecovered) {
  // Two error vectors that cancel: e1 = -e2 => c = (0.5, 0.5), and the
  // extrapolated Fock is the average.
  Diis diis(4);
  la::Matrix f1{{2.0}};
  la::Matrix f2{{4.0}};
  la::Matrix e1{{0.3}};
  la::Matrix e2{{-0.3}};
  diis.push(f1, e1);
  diis.push(f2, e2);
  EXPECT_NEAR(diis.extrapolate()(0, 0), 3.0, 1e-10);
}

}  // namespace
}  // namespace mc::scf
