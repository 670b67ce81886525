// Deterministic fuzzer for the query-text decoder: ParseQuery is fed
// SplitMix64 mutations of valid queries — byte flips, truncations,
// unbalanced parentheses, quoted names with stray quotes and escapes,
// splices and joins of other queries, and operator chains and `not`
// towers around kMaxQueryDepth. Every input must come back as a formula
// or as a clean ParseError/InvalidArgument (never a crash, a hang or
// another code). Every accepted formula must survive ParseQuery∘ToString
// byte-stably, and CanonicalizeQuery must be idempotent on it. The
// sanitizer build runs this suite like any other.

#include <cstdint>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "src/base/status.h"
#include "src/query/parser.h"
#include "src/query/plan.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// Valid queries to mutate: every sort of quantifier, every connective and
// predicate, quoted names with escapes, and name equality.
const char* const kSeedQueries[] = {
    "exists region r . subset(r, A) and subset(r, B) and subset(r, C)",
    "forall region r . forall region s . (subset(r, A) and subset(s, A)) "
    "implies exists region t . subset(t, A) and connect(t, r) and "
    "connect(t, s)",
    "exists cell c . subset(c, A) and subset(c, B)",
    "exists name a . exists name b . not (a = b) and overlap(a, b)",
    "exists cell c . subset(c, \"main street\") and subset(c, \"1a\")",
    "connect(A, B) iff connect(B, A)",
    "not (disjoint(A, B) or meet(A, B)) implies overlap(A, B) or "
    "equal(A, B) or covers(A, B) or inside(B, A)",
    "forall name n . connect(n, n) and true",
    "exists region r . covers(r, \"say \\\"hi\\\"\") or false",
    "subset(\"back\\\\slash\", \"exists\")",
    "(((connect(A, A))))",
};

std::string Repeat(const std::string& s, int n) {
  std::string out;
  for (int i = 0; i < n; ++i) out += s;
  return out;
}

// A count close to kMaxQueryDepth. Wrapped around a seed (up to about a
// dozen levels deep) it lands on either side of the limit.
int NearDepthLimit(SplitMix64& rng) {
  return kMaxQueryDepth - 16 + static_cast<int>(rng.Below(20));
}

// One mutation of `text`, chosen and placed by `rng`.
void Mutate(SplitMix64& rng, std::string* text) {
  static const char kSyntax[] = "()\".,=\\ \tanotrxisfcl";
  const size_t size = text->size();
  switch (rng.Below(10)) {
    case 0: {  // Byte flip: any byte, or a byte of the grammar.
      if (size == 0) return;
      const char byte = rng.Below(2) == 0
                            ? static_cast<char>(rng.Below(256))
                            : kSyntax[rng.Below(sizeof(kSyntax) - 1)];
      (*text)[rng.Below(size)] = byte;
      return;
    }
    case 1:  // Truncation.
      text->resize(rng.Below(size + 1));
      return;
    case 2: {  // Unbalanced parentheses: a run of one kind, anywhere.
      const std::string run(1 + rng.Below(3), rng.Below(2) ? '(' : ')');
      text->insert(rng.Below(size + 1), run);
      return;
    }
    case 3: {  // A stray quote or escape, or a quoted name that has one.
      static const char* const kQuoted[] = {"\"", "\\\"", "\"a\\\"b",
                                            "\"x\" \"", "\"\\q\"", "\"\""};
      text->insert(rng.Below(size + 1), kQuoted[rng.Below(6)]);
      return;
    }
    case 4: {  // A left-deep operator chain near the depth limit.
      static const char* const kOps[] = {" and ", " or ", " implies ",
                                         " iff "};
      const std::string op = kOps[rng.Below(4)];
      *text = "(" + *text + ")" + Repeat(op + "connect(A, B)",
                                         NearDepthLimit(rng));
      return;
    }
    case 5: {  // A `not` tower near the depth limit, bare or parenthesized.
      const int n = NearDepthLimit(rng);
      *text = rng.Below(2) ? Repeat("not ", n) + "(" + *text + ")"
                           : Repeat("not (", n) + *text + Repeat(")", n);
      return;
    }
    case 6: {  // A run of random bytes.
      std::string run(1 + rng.Below(8), ' ');
      for (char& c : run) c = static_cast<char>(rng.Below(256));
      text->insert(rng.Below(size + 1), run);
      return;
    }
    case 7: {  // A piece of another seed spliced in.
      const std::string other =
          kSeedQueries[rng.Below(std::size(kSeedQueries))];
      const size_t begin = rng.Below(other.size());
      text->insert(rng.Below(size + 1),
                   other.substr(begin, 1 + rng.Below(other.size() - begin)));
      return;
    }
    case 8: {  // Joined with another seed by a connective.
      static const char* const kOps[] = {" and ", " or ", " implies ",
                                         " iff "};
      *text = "(" + *text + ")" + kOps[rng.Below(4)] + "(" +
              kSeedQueries[rng.Below(std::size(kSeedQueries))] + ")";
      return;
    }
    default: {  // A deleted range.
      if (size == 0) return;
      const size_t begin = rng.Below(size);
      text->erase(begin, 1 + rng.Below(size - begin));
      return;
    }
  }
}

TEST(QueryTextFuzzTest, MutatedQueriesParseOrFailCleanly) {
  for (const char* query : kSeedQueries) {
    ASSERT_TRUE(ParseQuery(query).ok()) << query;
  }
  SplitMix64 rng(0x9e27f022ull);
  int accepted = 0, rejected = 0, accepted_deep = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = kSeedQueries[rng.Below(std::size(kSeedQueries))];
    const uint64_t mutations = 1 + rng.Below(3);
    for (uint64_t m = 0; m < mutations; ++m) Mutate(rng, &text);
    const Result<FormulaPtr> query = ParseQuery(text);
    if (!query.ok()) {
      ++rejected;
      const StatusCode code = query.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << query.status().ToString() << "\n" << text;
      continue;
    }
    ++accepted;
    if (text.size() > 1000) ++accepted_deep;  // A tower or a long chain.
    const std::string written = (*query)->ToString();
    const Result<FormulaPtr> reparsed = ParseQuery(written);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\n" << written;
    EXPECT_EQ((*reparsed)->ToString(), written) << text;
    const FormulaPtr canonical = CanonicalizeQuery(*query);
    EXPECT_EQ(CanonicalizeQuery(canonical)->ToString(), canonical->ToString())
        << text;
  }
  // Both outcomes must be well represented for the run to mean anything.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
  EXPECT_GT(accepted_deep, 30);
}

TEST(QueryTextFuzzTest, DepthLimitIsExactForTowersAndChains) {
  // At the limit the tower parses; one level past it is refused with
  // InvalidArgument — never a crash however far past.
  const std::string leaf = "connect(A, B)";
  // A `not` tower of n levels over the leaf has depth n + 1.
  EXPECT_TRUE(ParseQuery(Repeat("not ", kMaxQueryDepth - 1) + leaf).ok());
  for (const int n : {kMaxQueryDepth, 4 * kMaxQueryDepth}) {
    const Result<FormulaPtr> deep = ParseQuery(Repeat("not ", n) + leaf);
    ASSERT_FALSE(deep.ok());
    EXPECT_EQ(deep.status().code(), StatusCode::kInvalidArgument);
  }
  // A left-deep chain of n operators over n + 1 leaves has depth n + 1.
  EXPECT_TRUE(
      ParseQuery(leaf + Repeat(" and " + leaf, kMaxQueryDepth - 1)).ok());
  const Result<FormulaPtr> chain =
      ParseQuery(leaf + Repeat(" or " + leaf, kMaxQueryDepth));
  ASSERT_FALSE(chain.ok());
  EXPECT_EQ(chain.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace topodb
