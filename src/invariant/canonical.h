#ifndef TOPODB_INVARIANT_CANONICAL_H_
#define TOPODB_INVARIANT_CANONICAL_H_

#include <string>

#include "src/base/status.h"
#include "src/invariant/data.h"

namespace topodb {

// Canonical forms and isomorphism for topological invariants (Theorem 3.4).
//
// A connected embedded labeled planar graph is canonized by a
// deterministic flag traversal (over the dart permutations rotation/twin)
// that may start from any dart, in either orientation; the canonical code
// is the lexicographically least one. Two invariants are isomorphic — via
// an isomorphism that is the identity on region names and maps the
// exterior face to the exterior face — iff their canonical strings are
// equal.
//
// The search is pruned. Each start's code is one '|'-terminated token per
// dart, emitted while its BFS runs and compared with the best code so far;
// the start is abandoned at the first token where it is greater. This is
// exact: token bodies use only digits, ",;", the label signs "ob-" and the
// exterior marks "ixUB", so '|' appears only as the terminator, and all
// codes of one component have the same number of tokens — two codes
// therefore first differ inside a token both have, or are equal. A tie is
// broken by the child-tag suffix of nested components, which is built only
// on a tie or a new best. The result is byte-identical to the exhaustive
// search (tests/canonical_golden_test.cc pins it); worst case is still
// quadratic, on symmetric inputs whose starts tie to the last token.
// Nonconnected instances are handled by canonizing the containment
// ("embedded-in") tree of skeleton components, with a globally consistent
// orientation choice across components — exactly the subtlety in the
// paper's proof of Theorem 3.4 (and the content of the Fig 7a experiment).

struct CanonicalOptions {
  // When false, the exterior face and outward-cycle marks are omitted from
  // the code: the result canonizes (V, E, delta, l, O) without f0, the
  // structure whose insufficiency the paper's Fig 6 demonstrates. Only
  // supported for connected instances.
  bool include_exterior = true;
  // When false, orientation-reversing isomorphisms are not admitted: the
  // canonical form distinguishes an instance from its mirror image. This
  // is the *isotopy*-generic notion of [KPV95] (footnote 1 of the paper:
  // isotopies are continuous deformations of the plane, which preserve
  // orientation), strictly finer than H-genericity.
  bool allow_reflection = true;
};

// Escapes a region name for use in a ','-separated canonical header:
// '\' becomes "\\" and ',' becomes "\,". The identity on names without
// those characters, and injective on name *lists* — without it,
// {"a,b"} and {"a", "b"} would serialize identically and non-isomorphic
// instances would compare equal.
std::string EscapeRegionName(const std::string& name);

// Canonical string of the invariant. Deterministic; equal strings iff
// isomorphic structures (at the chosen level).
Result<std::string> CanonicalInvariantString(const InvariantData& data,
                                             const CanonicalOptions& options);

inline Result<std::string> CanonicalInvariantString(const InvariantData& d) {
  return CanonicalInvariantString(d, CanonicalOptions{});
}

// Theorem 3.4 equivalence: isomorphism of full invariants (identity on
// names, exterior to exterior, orientation globally consistent). Errors
// (instead of crashing) when either invariant is not well formed.
Result<bool> Isomorphic(const InvariantData& a, const InvariantData& b);

// Fig 6 level: isomorphism of (V, E, delta, l, O) ignoring the exterior
// face. Connected instances only.
Result<bool> IsomorphicIgnoringExterior(const InvariantData& a,
                                        const InvariantData& b);

// [KPV95] level: equivalence under orientation-preserving homeomorphisms
// (isotopy-generic). Finer than Isomorphic: a chiral instance is not
// isotopy-equivalent to its mirror image. Errors when either invariant is
// not well formed.
Result<bool> IsotopyEquivalent(const InvariantData& a, const InvariantData& b);

// Convenience wrapper caching the canonical string of an instance.
class TopologicalInvariant {
 public:
  static Result<TopologicalInvariant> Compute(const SpatialInstance& instance);
  static Result<TopologicalInvariant> FromData(InvariantData data);
  // For the pipeline cache: wraps data with an externally computed
  // canonical string, which must equal CanonicalInvariantString(data)
  // under default options (the pipeline's InvariantCache guarantees this).
  static TopologicalInvariant FromPrecomputed(InvariantData data,
                                              std::string canonical);

  const InvariantData& data() const { return data_; }
  const std::string& canonical() const { return canonical_; }

  bool EquivalentTo(const TopologicalInvariant& other) const {
    return canonical_ == other.canonical_;
  }

 private:
  InvariantData data_;
  std::string canonical_;
};

}  // namespace topodb

#endif  // TOPODB_INVARIANT_CANONICAL_H_
