#pragma once
// Shared fixture for the cross-algorithm Fock equivalence tests
// (test_core.cpp, test_equivalence.cpp, test_tsan_protocol.cpp): one
// molecule + basis + screened ERI engine + a plausible density, with the
// serial skeleton matrix as the reference, plus the distributed-build
// helper and the bit-level comparison the harness asserts.
//
// On "bit-comparable": a race-free parallel Fock build computes exactly the
// serial quartet set and only reassociates the additions, so every element
// lands within a few dozen ULPs of the serial reference (measured: <= ~40
// ULPs across the rank/thread/schedule sweep). The comparison core and the
// full separation argument live in tests/fuzz/ulp_compare.hpp, shared with
// the randomized differential fuzz harness; this header wraps it in gtest
// assertions.

#include <gtest/gtest.h>

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "fuzz/ulp_compare.hpp"

#include "basis/basis_set.hpp"
#include "chem/builders.hpp"
#include "core/fock_dist.hpp"
#include "core/fock_mpi.hpp"
#include "core/fock_private.hpp"
#include "core/fock_shared.hpp"
#include "ints/one_electron.hpp"
#include "la/orthogonalizer.hpp"
#include "la/sym_eig.hpp"
#include "par/ddi.hpp"
#include "par/runtime.hpp"
#include "scf/scf_driver.hpp"
#include "scf/serial_fock.hpp"

namespace mc::core {

// kMaxSkeletonUlps and kCancellationFloor come from fuzz/ulp_compare.hpp
// (same namespace), so every suite that included them from here is
// unchanged.

struct FockFixture {
  chem::Molecule mol;
  basis::BasisSet bs;
  ints::EriEngine eri;
  ints::Screening screen;
  la::Matrix d;      // plausible symmetric density (core guess)
  la::Matrix g_ref;  // serial skeleton reference
  // Incremental-build material: a realistic delta density (the change from
  // the core guess to the next SCF iterate), its density-weighted context,
  // and the serial weighted delta skeleton as the reference for the
  // incremental equivalence tests.
  la::Matrix d_delta;
  scf::FockContext delta_ctx;
  la::Matrix g_ref_delta;

  explicit FockFixture(const chem::Molecule& m, const std::string& basis,
                       double screen_threshold = 1e-11)
      : mol(m),
        bs(basis::BasisSet::build(m, basis)),
        eri(bs),
        screen(eri, screen_threshold),
        d(),
        g_ref(bs.nbf(), bs.nbf()),
        g_ref_delta(bs.nbf(), bs.nbf()) {
    la::Matrix h = ints::core_hamiltonian(bs, mol);
    la::Matrix s = ints::overlap_matrix(bs);
    la::Matrix x = la::canonical_orthogonalizer(s);
    const int nocc = mol.nelectrons() / 2;
    d = scf::core_guess_density(h, x, nocc);
    scf::SerialFockBuilder serial(eri, screen);
    serial.build(d, g_ref);

    // One Roothaan step gives the next density; its difference from the
    // guess is the delta an incremental second iteration would contract.
    la::Matrix g_sym = g_ref;
    g_sym.symmetrize();
    la::Matrix f = h;
    f += g_sym;
    la::SymEigResult eig = la::eigh_generalized(f, x);
    d_delta = scf::density_from_coefficients(eig.vectors, nocc);
    d_delta -= d;
    delta_ctx = scf::FockContext::from_density(bs, d_delta,
                                               /*incremental=*/true);
    serial.build(d_delta, g_ref_delta, delta_ctx);
  }
};

/// Build the skeleton G of density `d` under context `ctx` with a given
/// algorithm under `nranks` ranks and return rank 0's reduced result.
/// `make(ddi)` returns the builder.
template <typename MakeBuilder>
la::Matrix build_distributed_with(const FockFixture& fx, int nranks,
                                  const la::Matrix& d,
                                  const scf::FockContext& ctx,
                                  MakeBuilder&& make) {
  la::Matrix out(fx.bs.nbf(), fx.bs.nbf());
  std::mutex mu;
  par::run_spmd(nranks, [&](par::Comm& comm) {
    par::Ddi ddi(comm);
    auto builder = make(ddi);
    la::Matrix g(fx.bs.nbf(), fx.bs.nbf());
    builder->build(d, g, ctx);
    if (comm.rank() == 0) {
      std::lock_guard<std::mutex> lk(mu);
      out = g;
    }
    comm.barrier();
  });
  return out;
}

/// The fixture's density under the trivial (static-screening) context.
template <typename MakeBuilder>
la::Matrix build_distributed(const FockFixture& fx, int nranks,
                             MakeBuilder&& make) {
  return build_distributed_with(fx, nranks, fx.d, scf::FockContext{},
                                std::forward<MakeBuilder>(make));
}

/// Same as build_distributed, but contracts the fixture's delta density
/// under its density-weighted context (the incremental-build code path).
template <typename MakeBuilder>
la::Matrix build_distributed_delta(const FockFixture& fx, int nranks,
                                   MakeBuilder&& make) {
  return build_distributed_with(fx, nranks, fx.d_delta, fx.delta_ctx,
                                std::forward<MakeBuilder>(make));
}

/// A weighted delta build in which the density-weighted pair prescreen
/// drops a large part of the bra-grouped pair list: a context for the
/// fixture's delta density whose screening threshold is multiplied by
/// `threshold_scale` (the bounds are homogeneous, so this screens like a
/// delta density 1/threshold_scale as large, as in a late SCF iteration,
/// while the surviving contributions stay large enough for the ULP
/// comparison to bite), the serial reference, and the pair census the
/// shared-Fock master sees while claiming.
struct SkipHeavyDelta {
  scf::FockContext ctx;
  la::Matrix g_ref;
  std::size_t skipped_pairs = 0;  ///< list pairs the pair prescreen drops
  std::size_t kept_pairs = 0;
  std::size_t kept_i_groups = 0;  ///< distinct i shells among kept pairs
};

inline SkipHeavyDelta make_skip_heavy_delta(const FockFixture& fx,
                                            double threshold_scale) {
  SkipHeavyDelta s;
  s.ctx = fx.delta_ctx;
  s.ctx.threshold_scale = threshold_scale;
  s.g_ref = la::Matrix(fx.bs.nbf(), fx.bs.nbf());
  scf::SerialFockBuilder serial(fx.eri, fx.screen);
  serial.build(fx.d_delta, s.g_ref, s.ctx);
  std::vector<bool> seen(fx.bs.nshells(), false);
  for (const ints::ScreenedPair& pr : fx.screen.bra_grouped_pairs()) {
    if (!fx.screen.keep_pair(pr.i, pr.j, 4.0 * s.ctx.dmax_max,
                             s.ctx.threshold_scale)) {
      ++s.skipped_pairs;
      continue;
    }
    ++s.kept_pairs;
    if (!seen[pr.i]) {
      seen[pr.i] = true;
      ++s.kept_i_groups;
    }
  }
  return s;
}

/// Assert every element of `g` is within `max_ulps` representable doubles
/// of `ref` (or inside the cancellation floor). max_ulps = 0 demands
/// bit-identical matrices.
inline void expect_bit_comparable(const la::Matrix& g, const la::Matrix& ref,
                                  std::uint64_t max_ulps,
                                  const std::string& what) {
  ASSERT_EQ(g.rows(), ref.rows()) << what;
  ASSERT_EQ(g.cols(), ref.cols()) << what;
  const UlpComparison cmp = compare_bit_comparable(g, ref, max_ulps);
  EXPECT_TRUE(cmp.ok) << describe_ulp_failure(cmp, what);
}

}  // namespace mc::core
