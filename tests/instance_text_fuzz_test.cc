// Deterministic fuzzer for the instance-text decoder: ParseInstanceText is
// fed SplitMix64 mutations of valid texts — byte flips, truncations,
// duplicated and reordered lines, injected bow-tie and fold-back rings, and
// over-long coordinate literals. Every input must come back as an instance
// or as a clean ParseError/InvalidArgument (never a crash, a hang or
// another code), and every accepted instance must survive Write∘Parse
// byte-stably. The sanitizer build runs this suite like any other.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/base/status.h"
#include "src/region/io.h"
#include "src/region/transform.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

// Valid texts to mutate: random rectangle instances, their 2^64-stretched
// images (long fraction literals), and hand-written texts covering the
// literal forms, comments, blank lines and line-ending conventions.
std::vector<std::string> SeedTexts() {
  std::vector<std::string> texts;
  const BigInt s = BigInt(1).ShiftLeft(64);
  const AffineTransform stretch =
      *AffineTransform::Make(Rational(s, BigInt(3)), 0, Rational(BigInt(7), s),
                             0, Rational(s, BigInt(5)), Rational(1, 3));
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    const SpatialInstance instance =
        *RandomRectInstance(2 + static_cast<int>(seed % 4), 40, seed);
    texts.push_back(WriteInstanceText(instance));
    if (seed % 3 == 0) {
      texts.push_back(WriteInstanceText(*stretch.ApplyToInstance(instance)));
    }
  }
  texts.push_back(
      "# land use\n"
      "Park: (0 0, 4 0, 4 3, 0 3)\n"
      "\n"
      "Lake: (1 1, 2.5 1, 2.5 2, 1 2)\n");
  texts.push_back(
      "A: (0 0, 6 0, 6 4, 4 4, 4 2, 2 2, 2 4, 0 4)\r\n"
      "B: (-1/2 1, 7/2 1, 3/2 5)\r\n");
  texts.push_back(
      "L: (0 0, 0.0 4, +2 4, 2 2, 4 2, 4/1 -0)\r"
      "T: (9 9, 10 9, 9 10)");
  return texts;
}

std::vector<std::string> SplitKeepingEnds(const std::string& text) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < text.size()) {
    size_t end = text.find('\n', begin);
    end = (end == std::string::npos) ? text.size() : end + 1;
    lines.push_back(text.substr(begin, end - begin));
    begin = end;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line;
  return out;
}

// One mutation of `text`, chosen and placed by `rng`.
void Mutate(SplitMix64& rng, std::string* text) {
  static const char kSyntax[] = "():,.-+/# \t\r\n0123456789eE";
  const size_t size = text->size();
  switch (rng.Below(8)) {
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
    case 2: {  // Duplicated line.
      std::vector<std::string> lines = SplitKeepingEnds(*text);
      if (lines.empty()) return;
      const size_t i = rng.Below(lines.size());
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(i), lines[i]);
      *text = Join(lines);
      return;
    }
    case 3: {  // Two lines swapped.
      std::vector<std::string> lines = SplitKeepingEnds(*text);
      if (lines.size() < 2) return;
      std::swap(lines[rng.Below(lines.size())], lines[rng.Below(lines.size())]);
      *text = Join(lines);
      return;
    }
    case 4: {  // An injected bow-tie or fold-back ring.
      const std::string dx = std::to_string(rng.Below(9));
      const std::string w = std::to_string(1 + rng.Below(5));
      std::string name = "Z";
      name += std::to_string(rng.Below(1000));
      const std::string ring =
          rng.Below(2) == 0
              ? name + ": (" + dx + " 0, " + w + " " + w + ", " + w + " 0, " +
                    dx + " " + w + ")\n"
              : name + ": (" + dx + " 0, " + w + " 0, " + dx + " 0, " + dx +
                    " " + w + ")\n";
      text->insert(rng.Below(size + 1), ring);
      return;
    }
    case 5: {  // An over-long literal in place of a coordinate.
      const size_t at = text->find_first_of("0123456789", rng.Below(size + 1));
      if (at == std::string::npos) return;
      // 4097 chars is past the literal cap; ".1...1" of 2049 chars is
      // short enough to read but too long once reduced, and of 2048 chars
      // reduces to exactly the cap.
      std::string literal;
      switch (rng.Below(3)) {
        case 0:
          literal.assign(4097, '0');
          literal[0] = '1';
          break;
        case 1:
          literal.assign(2049, '1');
          literal[0] = '.';
          break;
        default:
          literal.assign(2048, '1');
          literal[0] = '.';
          break;
      }
      text->insert(at, literal);
      return;
    }
    case 6: {  // A run of random bytes.
      std::string run(1 + rng.Below(8), ' ');
      for (char& c : run) c = static_cast<char>(rng.Below(256));
      text->insert(rng.Below(size + 1), run);
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

TEST(InstanceTextFuzzTest, MutatedTextsParseOrFailCleanly) {
  const std::vector<std::string> seeds = SeedTexts();
  for (const std::string& text : seeds) {
    ASSERT_TRUE(ParseInstanceText(text).ok()) << text;
  }
  SplitMix64 rng(0xf022f022f022ull);
  int accepted = 0, rejected = 0;
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string text = seeds[rng.Below(seeds.size())];
    const uint64_t mutations = 1 + rng.Below(3);
    for (uint64_t m = 0; m < mutations; ++m) Mutate(rng, &text);
    const Result<SpatialInstance> instance = ParseInstanceText(text);
    if (!instance.ok()) {
      ++rejected;
      const StatusCode code = instance.status().code();
      EXPECT_TRUE(code == StatusCode::kParseError ||
                  code == StatusCode::kInvalidArgument)
          << instance.status().ToString() << "\n" << text;
      continue;
    }
    ++accepted;
    const std::string written = WriteInstanceText(*instance);
    const Result<SpatialInstance> reparsed = ParseInstanceText(written);
    ASSERT_TRUE(reparsed.ok())
        << reparsed.status().ToString() << "\n" << written;
    EXPECT_EQ(WriteInstanceText(*reparsed), written) << text;
  }
  // Both outcomes must be well represented for the run to mean anything.
  EXPECT_GT(accepted, 300);
  EXPECT_GT(rejected, 300);
}

}  // namespace
}  // namespace topodb
