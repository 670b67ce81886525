// Golden digests of the Theorem 3.4 canonical string.
//
// Store files and semantic-cache keys embed CanonicalInvariantString's
// bytes, so any change to them (even one that still decides isomorphism
// correctly) silently orphans persisted data. This test pins
// (length, FNV-1a 64) of the string under all four CanonicalOptions
// combinations, or the status code where a combination is refused, over
// every fixture and a spread of every workload generator:
//   - grids and flowers have starts that tie all the way through;
//   - crosses (a horizontal and a vertical bar, symmetric under a half
//     turn) with regions nested in their faces reach the child-suffix
//     tie-break: starts exchanged by the half turn have equal flag codes,
//     and a child in one arm tags them differently;
//   - random rectangles, one in eight stretched by a 2^64 affine map,
//     cover irregular shapes and wide coordinates.
//
// The table was computed before any change to the canonical search and
// must not be regenerated to make a search change pass. For a
// deliberate, documented format change, run the test binary with
// TOPODB_PRINT_CANONICAL_GOLDEN=1 to print the table of the current code.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/bigint.h"
#include "src/base/rational.h"
#include "src/invariant/canonical.h"
#include "src/invariant/data.h"
#include "src/region/fixtures.h"
#include "src/region/region.h"
#include "src/region/transform.h"
#include "src/workload/generators.h"

namespace topodb {
namespace {

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct Case {
  std::string name;
  SpatialInstance instance;
};

SpatialInstance Must(Result<SpatialInstance> instance) {
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  return std::move(instance).value();
}

// The 2^64 affine stretch of the exactness ablation (and of the
// end-to-end benchmark's invariant-cold workload).
AffineTransform Stretch() {
  BigInt factor(1);
  for (int i = 0; i < 64; ++i) factor = factor * BigInt(2);
  Result<AffineTransform> t = AffineTransform::Make(
      Rational(factor, BigInt(3)), 0, Rational(BigInt(7), factor), 0,
      Rational(factor, BigInt(5)), Rational(1, 3));
  EXPECT_TRUE(t.ok());
  return std::move(t).value();
}

std::vector<Case> Corpus() {
  std::vector<Case> corpus;
  for (const std::string& name : FixtureNames()) {
    corpus.push_back({name, Must(FixtureByName(name))});
  }
  for (int n = 1; n <= 12; ++n) {
    corpus.push_back({"chain-" + std::to_string(n), Must(ChainInstance(n))});
  }
  for (int rows = 1; rows <= 5; ++rows) {
    for (int cols = 1; cols <= 5; ++cols) {
      corpus.push_back(
          {"grid-" + std::to_string(rows) + "x" + std::to_string(cols),
           Must(RectGridInstance(rows, cols))});
    }
  }
  for (int n = 1; n <= 8; ++n) {
    corpus.push_back(
        {"rings-" + std::to_string(n), Must(NestedRingsInstance(n))});
    corpus.push_back({"comb-" + std::to_string(n), Must(CombInstance(n))});
    corpus.push_back({"flower-" + std::to_string(n), Must(FlowerInstance(n))});
  }
  const AffineTransform stretch = Stretch();
  for (uint64_t seed = 0; seed < 240; ++seed) {
    SplitMix64 rng(seed);
    const uint64_t h = rng.Next();
    // 1-12 rectangles; every third seed on a small world, where shared
    // corners and collinear edges are common.
    const int n = 1 + static_cast<int>(h % 12);
    const int64_t world = seed % 3 == 0 ? 16 : 64;
    SpatialInstance instance = Must(RandomRectInstance(n, world, h));
    std::string name = "rect-" + std::to_string(seed);
    if (seed % 8 == 7) {
      Result<SpatialInstance> stretched = stretch.ApplyToInstance(instance);
      EXPECT_TRUE(stretched.ok());
      instance = std::move(stretched).value();
      name += "-stretched";
    }
    corpus.push_back({name, std::move(instance)});
  }
  // Crosses: bars A and B cross at four points; the half turn about the
  // center maps each bar to itself, so its flag codes tie in pairs.
  const auto rect = [](int x0, int y0, int x1, int y1) {
    Result<Region> r = Region::MakeRect(Point(x0, y0), Point(x1, y1));
    EXPECT_TRUE(r.ok());
    return std::move(r).value();
  };
  struct Child {
    const char* name;
    int x0, y0, x1, y1;
  };
  const std::vector<std::pair<std::string, std::vector<Child>>> crosses = {
      {"cross", {}},
      {"cross-center", {{"C", 8, 8, 10, 10}}},
      {"cross-arm", {{"C", 2, 8, 3, 9}}},
      {"cross-both-arms", {{"C", 2, 8, 3, 9}, {"D", 15, 8, 16, 9}}},
      {"cross-a-and-b-arms", {{"C", 2, 8, 3, 9}, {"D", 8, 2, 9, 3}}},
      {"cross-nested-arm", {{"C", 1, 7, 5, 11}, {"D", 2, 8, 3, 9}}},
      {"cross-outside", {{"C", 20, 0, 21, 1}}},
  };
  for (const auto& [name, children] : crosses) {
    SpatialInstance instance;
    EXPECT_TRUE(instance.AddRegion("A", rect(0, 6, 18, 12)).ok());
    EXPECT_TRUE(instance.AddRegion("B", rect(6, 0, 12, 18)).ok());
    for (const Child& c : children) {
      EXPECT_TRUE(
          instance.AddRegion(c.name, rect(c.x0, c.y0, c.x1, c.y1)).ok());
    }
    corpus.push_back({name, std::move(instance)});
  }
  return corpus;
}

// Index i of the four option combinations: bit 1 = include_exterior,
// bit 0 = allow_reflection (so index 3 is the default options).
CanonicalOptions OptionsAt(int i) {
  CanonicalOptions options;
  options.include_exterior = (i & 2) != 0;
  options.allow_reflection = (i & 1) != 0;
  return options;
}

// "<length>:<fnv hex>" of the canonical string, or the status code name.
std::string Digest(const InvariantData& data, const CanonicalOptions& options) {
  Result<std::string> canonical = CanonicalInvariantString(data, options);
  if (!canonical.ok()) return Status::CodeName(canonical.status().code());
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%zu:%016" PRIx64, canonical->size(),
                Fnv1a64(*canonical));
  return buf;
}

void ForEachDigest(
    const std::function<void(const std::string& name, int option,
                             const std::string& digest)>& fn) {
  for (const Case& c : Corpus()) {
    Result<InvariantData> data = ComputeInvariant(c.instance);
    ASSERT_TRUE(data.ok()) << c.name << ": " << data.status().ToString();
    for (int i = 0; i < 4; ++i) fn(c.name, i, Digest(*data, OptionsAt(i)));
  }
}

struct Golden {
  const char* name;
  // Indexed as OptionsAt: {-ext -refl, -ext +refl, +ext -refl, +ext +refl}.
  const char* digest[4];
};

// clang-format off
const Golden kGolden[] = {
    {"fig1a", {"427:21103c796c313260", "427:a5fc53933393cf30", "499:e774483cc3ca3cac", "499:02f3340ea58be864"}},
    {"fig1b", {"859:fdc423e5040cfcec", "859:fdc423e5040cfcec", "1003:f20e95e6029dfd26", "1003:f20e95e6029dfd26"}},
    {"fig1c", {"117:936adeed69be1b4d", "117:936adeed69be1b4d", "141:4cdbc1370d40ab39", "141:4cdbc1370d40ab39"}},
    {"fig1d", {"233:54f38699744f7533", "233:54f38699744f7533", "281:49504d9a938aea73", "281:49504d9a938aea73"}},
    {"fig6", {"427:069406375c330558", "427:069406375c330558", "499:2e7b8c367b328324", "499:2e7b8c367b328324"}},
    {"fig7a", {"Unsupported", "Unsupported", "2863:7ad11074cbc7e631", "2863:7ad11074cbc7e631"}},
    {"fig7a_prime", {"Unsupported", "Unsupported", "2863:4789703acb0e63e3", "2863:76c5627f2f3ce0eb"}},
    {"fig7b", {"169:14e8e7469e77942c", "169:99b0ae5cf945c004", "193:fa729eecb1d9020c", "193:c9a7851d36a9628c"}},
    {"fig7b_prime", {"169:2b436ae393043a6c", "169:53952e648a78eb14", "193:8ad765345c20dbd4", "193:8b863798b84ec68c"}},
    {"single", {"31:cf055c3ac6555245", "31:cf055c3ac6555245", "37:c85f5ae3c778ab0d", "37:c85f5ae3c778ab0d"}},
    {"nested", {"Unsupported", "Unsupported", "83:205717c6fd9ef16f", "83:205717c6fd9ef16f"}},
    {"disjoint", {"Unsupported", "Unsupported", "79:5efdfcf215838f0d", "79:5efdfcf215838f0d"}},
    {"chain-1", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"chain-2", {"123:adb0312c69ae4e63", "123:adb0312c69ae4e63", "147:be0a74b7bb101ecf", "147:be0a74b7bb101ecf"}},
    {"chain-3", {"292:1cc938936c6e27ef", "292:1cc938936c6e27ef", "340:a7b99574593eabf7", "340:a7b99574593eabf7"}},
    {"chain-4", {"513:4d8f28e6c31bb5ee", "513:4d8f28e6c31bb5ee", "585:498fcd3fa3264cb4", "585:498fcd3fa3264cb4"}},
    {"chain-5", {"782:39d1707daf85b7e6", "782:39d1707daf85b7e6", "878:dfedc2dfff5729ca", "878:dfedc2dfff5729ca"}},
    {"chain-6", {"1099:36f58e185afddc43", "1099:36f58e185afddc43", "1219:fff075daac5a3c73", "1219:fff075daac5a3c73"}},
    {"chain-7", {"1464:d904123ed7793d45", "1464:d904123ed7793d45", "1608:3e980b84a57b48c9", "1608:3e980b84a57b48c9"}},
    {"chain-8", {"1877:5863737ad1612c92", "1877:5863737ad1612c92", "2045:3d38f4a056c8f500", "2045:3d38f4a056c8f500"}},
    {"chain-9", {"2338:8247f66f29495d92", "2338:8247f66f29495d92", "2530:f59832ef9a9bdf82", "2530:f59832ef9a9bdf82"}},
    {"chain-10", {"2847:5d1cf238d16f85b5", "2847:5d1cf238d16f85b5", "3063:691cf93a9df73717", "3063:691cf93a9df73717"}},
    {"chain-11", {"3404:6a9fa2cfd28e5ca2", "3404:6a9fa2cfd28e5ca2", "3644:5b34dfff4105c5b0", "3644:5b34dfff4105c5b0"}},
    {"chain-12", {"4009:6a74a9d97ec9a738", "4009:6a74a9d97ec9a738", "4273:f4c9fe222ea2e352", "4273:f4c9fe222ea2e352"}},
    {"grid-1x1", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"grid-1x2", {"179:fc006a371550e24b", "179:fc006a371550e24b", "215:63c7bad983a65c35", "215:63c7bad983a65c35"}},
    {"grid-1x3", {"436:7284ff4660be63bd", "436:7284ff4660be63bd", "508:691d4126998ac959", "508:691d4126998ac959"}},
    {"grid-1x4", {"765:7d6e97fa2e8b36ba", "765:7d6e97fa2e8b36ba", "873:fe6b338e693f4f9c", "873:fe6b338e693f4f9c"}},
    {"grid-1x5", {"1166:7b9b845e51512e2a", "1166:7b9b845e51512e2a", "1310:236cd634366ea78a", "1310:236cd634366ea78a"}},
    {"grid-2x1", {"179:fc006a371550e24b", "179:fc006a371550e24b", "215:63c7bad983a65c35", "215:63c7bad983a65c35"}},
    {"grid-2x2", {"849:29c674a11b00b25c", "849:29c674a11b00b25c", "969:b92ac687dbe70ec6", "969:b92ac687dbe70ec6"}},
    {"grid-2x3", {"1855:c02c643d17769723", "1855:c02c643d17769723", "2059:93ac50ed432a8bd9", "2059:93ac50ed432a8bd9"}},
    {"grid-2x4", {"3197:cef5050f32be945c", "3197:cef5050f32be945c", "3485:80e5721bca04a526", "3485:80e5721bca04a526"}},
    {"grid-2x5", {"4923:544a270446827dab", "4923:544a270446827dab", "5295:64cfb5f2ac00bb0f", "5295:64cfb5f2ac00bb0f"}},
    {"grid-3x1", {"436:7284ff4660be63bd", "436:7284ff4660be63bd", "508:691d4126998ac959", "508:691d4126998ac959"}},
    {"grid-3x2", {"1855:ebca426d0748f7dd", "1855:ebca426d0748f7dd", "2059:aecd47138af88fdd", "2059:aecd47138af88fdd"}},
    {"grid-3x3", {"4090:b1cf8ec5338eeca0", "4090:b1cf8ec5338eeca0", "4426:624c93590fccf420", "4426:624c93590fccf420"}},
    {"grid-3x4", {"7181:1490ca68d65aab60", "7181:1490ca68d65aab60", "7649:7e2a5e095b1d8bb6", "7649:7e2a5e095b1d8bb6"}},
    {"grid-3x5", {"11064:f123bcff306190ba", "11064:f123bcff306190ba", "11664:3962446ce69b233a", "11664:3962446ce69b233a"}},
    {"grid-4x1", {"765:7d6e97fa2e8b36ba", "765:7d6e97fa2e8b36ba", "873:fe6b338e693f4f9c", "873:fe6b338e693f4f9c"}},
    {"grid-4x2", {"3197:09aeed4b3847dba8", "3197:09aeed4b3847dba8", "3485:8fc9945873d8f0de", "3485:8fc9945873d8f0de"}},
    {"grid-4x3", {"7181:92cd960839d40622", "7181:92cd960839d40622", "7649:241c00f99b438916", "7649:241c00f99b438916"}},
    {"grid-4x4", {"12613:e5fa61ed42939256", "12613:e5fa61ed42939256", "13261:ba236835efa8839a", "13261:ba236835efa8839a"}},
    {"grid-4x5", {"19485:557fbc003cd649a4", "19485:557fbc003cd649a4", "20313:f29dceb75fb52ed6", "20313:f29dceb75fb52ed6"}},
    {"grid-5x1", {"1166:7b9b845e51512e2a", "1166:7b9b845e51512e2a", "1310:236cd634366ea78a", "1310:236cd634366ea78a"}},
    {"grid-5x2", {"4923:dd8dd65fdeff9807", "4923:dd8dd65fdeff9807", "5295:6550cae3c4b931c7", "5295:6550cae3c4b931c7"}},
    {"grid-5x3", {"11064:9ae00739598ff012", "11064:9ae00739598ff012", "11664:01f6ff88d3ba5f02", "11664:01f6ff88d3ba5f02"}},
    {"grid-5x4", {"19485:97017685a3a819de", "19485:97017685a3a819de", "20313:b727ce61090da222", "20313:b727ce61090da222"}},
    {"grid-5x5", {"30186:7d981f4e11da77e0", "30186:7d981f4e11da77e0", "31242:d872249f13a25dd2", "31242:d872249f13a25dd2"}},
    {"rings-1", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"comb-1", {"117:936adeed69be1b4d", "117:936adeed69be1b4d", "141:4cdbc1370d40ab39", "141:4cdbc1370d40ab39"}},
    {"flower-1", {"123:150da5e7bf0169d1", "123:150da5e7bf0169d1", "147:41ce3a77ae0e43ad", "147:41ce3a77ae0e43ad"}},
    {"rings-2", {"Unsupported", "Unsupported", "89:15de4061b5038a79", "89:15de4061b5038a79"}},
    {"comb-2", {"233:54f38699744f7533", "233:54f38699744f7533", "281:49504d9a938aea73", "281:49504d9a938aea73"}},
    {"flower-2", {"292:38ef8b91377908ce", "292:38ef8b91377908ce", "340:1c0dbefdf15145a2", "340:1c0dbefdf15145a2"}},
    {"rings-3", {"Unsupported", "Unsupported", "150:83e947f9865ce509", "150:83e947f9865ce509"}},
    {"comb-3", {"353:2082bb49507991ef", "353:2082bb49507991ef", "425:91a0268b8b540097", "425:91a0268b8b540097"}},
    {"flower-3", {"513:c0ee524d9d8c738e", "513:c0ee524d9d8c738e", "585:6adce482701abc48", "585:6adce482701abc48"}},
    {"rings-4", {"Unsupported", "Unsupported", "223:e50d9b6fa495ddce", "223:e50d9b6fa495ddce"}},
    {"comb-4", {"473:463d0c752636552b", "473:463d0c752636552b", "569:4bef7a2149e88537", "569:4bef7a2149e88537"}},
    {"flower-4", {"782:ade1c80386089711", "782:536cca708426c0ad", "878:b822ed9388cd70cf", "878:c72efc9772d3ef23"}},
    {"rings-5", {"Unsupported", "Unsupported", "308:461869210476dda6", "308:461869210476dda6"}},
    {"comb-5", {"593:d73cdc5cfbc4dfef", "593:d73cdc5cfbc4dfef", "713:1a7936b83edae337", "713:1a7936b83edae337"}},
    {"flower-5", {"1099:da8986ad7fba955b", "1099:da8986ad7fba955b", "1219:d5bc8c8f409747ed", "1219:d5bc8c8f409747ed"}},
    {"rings-6", {"Unsupported", "Unsupported", "405:37076095c6300641", "405:37076095c6300641"}},
    {"comb-6", {"713:42f207f1d44db2ef", "713:42f207f1d44db2ef", "857:ac44cc0c663addd3", "857:ac44cc0c663addd3"}},
    {"flower-6", {"1464:10cba691d16fa2e8", "1464:46afd087b284b74c", "1608:2b7085af9d5c272c", "1608:2760ab9ebb59e190"}},
    {"rings-7", {"Unsupported", "Unsupported", "514:5045eab844f35dd5", "514:5045eab844f35dd5"}},
    {"comb-7", {"833:499f6c4e1299e847", "833:499f6c4e1299e847", "1001:6ad7c774a119740b", "1001:6ad7c774a119740b"}},
    {"flower-7", {"1877:99368f04363986be", "1877:99368f04363986be", "2045:eea743d977898c94", "2045:eea743d977898c94"}},
    {"rings-8", {"Unsupported", "Unsupported", "635:0b35b66d46835ff6", "635:0b35b66d46835ff6"}},
    {"comb-8", {"953:0399ed19236392bb", "953:0399ed19236392bb", "1145:69882348fb6546b3", "1145:69882348fb6546b3"}},
    {"flower-8", {"2338:521b022af0e32535", "2338:db06785909c6cfd5", "2530:8cc5aa3806a73dc9", "2530:7cc8b1ce650ed9d1"}},
    {"rect-0", {"3263:71be7bbb4f5ec03e", "3263:1bec444536d9d1b2", "3557:f3b4f3ce1d20f4c0", "3557:648b8851c0a9f644"}},
    {"rect-1", {"Unsupported", "Unsupported", "499:ddb43114aa2dd8e5", "499:ddb43114aa2dd8e5"}},
    {"rect-2", {"Unsupported", "Unsupported", "4448:6cbaae30ba0d3e9c", "4448:6cbaae30ba0d3e9c"}},
    {"rect-3", {"3861:20a8bc055f803181", "3861:c3eca43baab55c59", "4155:bc166ef24362e425", "4155:ec81076ce0067d51"}},
    {"rect-4", {"Unsupported", "Unsupported", "3710:913d4f59f0bba6f0", "3710:076544c12a1ab178"}},
    {"rect-5", {"Unsupported", "Unsupported", "142:6f834502067f5029", "142:6f834502067f5029"}},
    {"rect-6", {"Unsupported", "Unsupported", "3074:d1082e864d92fe30", "3074:d1082e864d92fe30"}},
    {"rect-7-stretched", {"807:f04c37dde2105dc8", "807:1dab4ee6d52bec30", "921:6f09b80d01ab66d0", "921:767c4a30aee407ce"}},
    {"rect-8", {"Unsupported", "Unsupported", "4814:545cf6d05cfde98a", "4814:545cf6d05cfde98a"}},
    {"rect-9", {"Unsupported", "Unsupported", "550:bc07698afa27a07e", "550:bc07698afa27a07e"}},
    {"rect-10", {"Unsupported", "Unsupported", "3104:fe552cb57f495478", "3104:5e6fcdc13e04b3ea"}},
    {"rect-11", {"Unsupported", "Unsupported", "2201:6d27a251319716d3", "2201:6d27a251319716d3"}},
    {"rect-12", {"Unsupported", "Unsupported", "341:189503ca0946e06c", "341:189503ca0946e06c"}},
    {"rect-13", {"Unsupported", "Unsupported", "1597:98106f0375a74c4a", "1597:50eb26c26f6ff914"}},
    {"rect-14", {"292:372b531dee39ecd9", "292:372b531dee39ecd9", "340:26c00036b13d149d", "340:26c00036b13d149d"}},
    {"rect-15-stretched", {"1315:156bac3b07b294a5", "1315:156bac3b07b294a5", "1459:ce1f7e2dd0834e45", "1459:c13d038e47bd02f9"}},
    {"rect-16", {"Unsupported", "Unsupported", "6943:88454b3f1241b2d4", "6943:88454b3f1241b2d4"}},
    {"rect-17", {"Unsupported", "Unsupported", "211:b6fea86c34bc0ce4", "211:b6fea86c34bc0ce4"}},
    {"rect-18", {"8116:cc11ca42364b4da0", "8116:cc11ca42364b4da0", "8680:b025d484f79d39ac", "8680:b025d484f79d39ac"}},
    {"rect-19", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-20", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-21", {"3131:b2f8ad5d60fda074", "3131:11eed1bc787363ee", "3413:2fa7f12a2046b04c", "3413:887a91871270ed46"}},
    {"rect-22", {"Unsupported", "Unsupported", "216:f0a357fbc4857435", "216:f0a357fbc4857435"}},
    {"rect-23-stretched", {"Unsupported", "Unsupported", "5336:97cecd6ab116800c", "5336:fa75807008f89be8"}},
    {"rect-24", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-25", {"Unsupported", "Unsupported", "3899:4312ed3cd6908d03", "3899:2fd0a9d8e39b5e6b"}},
    {"rect-26", {"Unsupported", "Unsupported", "5332:44ee0fcb233ac38a", "5332:44ee0fcb233ac38a"}},
    {"rect-27", {"6532:9acf1e07b825dc60", "6532:9acf1e07b825dc60", "6988:34739f723dede8fe", "6988:34739f723dede8fe"}},
    {"rect-28", {"Unsupported", "Unsupported", "438:a9e1b3a19cf415c2", "438:a9e1b3a19cf415c2"}},
    {"rect-29", {"Unsupported", "Unsupported", "1890:35582bca3df3af4c", "1890:35582bca3df3af4c"}},
    {"rect-30", {"400:e6e99e33aaa1e4f5", "400:e6e99e33aaa1e4f5", "466:abbcbbb149d1e123", "466:abbcbbb149d1e123"}},
    {"rect-31-stretched", {"Unsupported", "Unsupported", "1068:999137e781e290db", "1068:999137e781e290db"}},
    {"rect-32", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-33", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-34", {"Unsupported", "Unsupported", "723:52cb24a95c02b5d9", "723:52cb24a95c02b5d9"}},
    {"rect-35", {"Unsupported", "Unsupported", "439:4fc3d0437e24fde8", "439:4fc3d0437e24fde8"}},
    {"rect-36", {"9343:bfc3a6637a20b1b3", "9343:e889bbb935be681b", "9949:f5e4093af170263b", "9949:96d4fb4e4a7520c5"}},
    {"rect-37", {"Unsupported", "Unsupported", "4737:037a0fd8b7198daa", "4737:0859118635b6393c"}},
    {"rect-38", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-39-stretched", {"2770:161d994202c176c5", "2770:362c572c1d1ae8cb", "2998:3a0f868d2d8a25df", "2998:e2409f2ad3ec07cd"}},
    {"rect-40", {"Unsupported", "Unsupported", "4168:b5b2e15336d7ca32", "4168:b5b2e15336d7ca32"}},
    {"rect-41", {"Unsupported", "Unsupported", "1681:746efd6ba7cda5e5", "1681:e8534f8eb5863bf9"}},
    {"rect-42", {"149:303ada282fa741d1", "149:303ada282fa741d1", "179:6d706ccab2c72057", "179:6d706ccab2c72057"}},
    {"rect-43", {"Unsupported", "Unsupported", "340:1b73bac8cc3b6faa", "340:1b73bac8cc3b6faa"}},
    {"rect-44", {"Unsupported", "Unsupported", "571:bb1b5011db72605e", "571:bb1b5011db72605e"}},
    {"rect-45", {"7148:0e3bf030746db37f", "7148:d5a38d703a2ebe5b", "7646:a9963b8a7a2229e3", "7646:76fe1efdb03cdb0d"}},
    {"rect-46", {"Unsupported", "Unsupported", "297:dce1dc338f4024dc", "297:dce1dc338f4024dc"}},
    {"rect-47-stretched", {"5579:169daddb9eb2988f", "5579:169daddb9eb2988f", "5999:2d2da4987972dc81", "5999:2d2da4987972dc81"}},
    {"rect-48", {"9061:b248af05becfd3e3", "9061:8d8670099efed131", "9649:3d435dd1eb443fcf", "9649:72992a15e22a4597"}},
    {"rect-49", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-50", {"Unsupported", "Unsupported", "679:ff938ae4f5b3aa3c", "679:cb8f67e54fbdf12a"}},
    {"rect-51", {"1406:77cc2b8cd799b1bc", "1406:04cf852a635094a6", "1580:32116d509b38b45c", "1580:8f982df2179f209e"}},
    {"rect-52", {"Unsupported", "Unsupported", "216:f0a357fbc4857435", "216:f0a357fbc4857435"}},
    {"rect-53", {"Unsupported", "Unsupported", "3626:69f5fbe3b3be6cd2", "3626:514e502de25bf74e"}},
    {"rect-54", {"4841:cb10665b78a6fda3", "4841:cb10665b78a6fda3", "5207:aa68374968b445a7", "5207:aa68374968b445a7"}},
    {"rect-55-stretched", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-56", {"Unsupported", "Unsupported", "4747:b9cbbb8a00730e54", "4747:b9cbbb8a00730e54"}},
    {"rect-57", {"209:3535e2992ae62b77", "209:3535e2992ae62b77", "251:362542d9966c1153", "251:362542d9966c1153"}},
    {"rect-58", {"Unsupported", "Unsupported", "178:85e4d21d60075e3d", "178:85e4d21d60075e3d"}},
    {"rect-59", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-60", {"Unsupported", "Unsupported", "439:9ae3c9fbc0231d50", "439:9ae3c9fbc0231d50"}},
    {"rect-61", {"Unsupported", "Unsupported", "549:b28636dafdc337af", "549:b28636dafdc337af"}},
    {"rect-62", {"Unsupported", "Unsupported", "1672:53356d754c29d007", "1672:148061c245a7eb93"}},
    {"rect-63-stretched", {"97:60aa3bec23b89781", "97:60aa3bec23b89781", "115:80368d94a1193827", "115:80368d94a1193827"}},
    {"rect-64", {"Unsupported", "Unsupported", "1157:6a803bc17f565604", "1157:6a803bc17f565604"}},
    {"rect-65", {"Unsupported", "Unsupported", "4219:b7894241f0b64f7f", "4219:95c19bd311dc6bd7"}},
    {"rect-66", {"2847:a558c1b1b89a2aaf", "2847:be17b9e6b12f8a0d", "3063:f384d00bbeb72059", "3063:f9b767b44b378f05"}},
    {"rect-67", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-68", {"Unsupported", "Unsupported", "6606:8b629168960db287", "6606:8b629168960db287"}},
    {"rect-69", {"513:02f3bb3a9cd43e8e", "513:02f3bb3a9cd43e8e", "585:7262a1cf24883c04", "585:7262a1cf24883c04"}},
    {"rect-70", {"Unsupported", "Unsupported", "341:b5cc269c46d06d1c", "341:b5cc269c46d06d1c"}},
    {"rect-71-stretched", {"Unsupported", "Unsupported", "297:453e9805b6577f34", "297:453e9805b6577f34"}},
    {"rect-72", {"1884:aff3d7c9234184ab", "1884:aff3d7c9234184ab", "2070:fe8b084b90302ae7", "2070:fe8b084b90302ae7"}},
    {"rect-73", {"Unsupported", "Unsupported", "383:c4b13c61b24b742c", "383:c4b13c61b24b742c"}},
    {"rect-74", {"Unsupported", "Unsupported", "2113:2b5aa2fa2ba49c2e", "2113:af277df9a108e81e"}},
    {"rect-75", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-76", {"Unsupported", "Unsupported", "6360:8c460ffe84f96bcc", "6360:d098a678b1c6378a"}},
    {"rect-77", {"Unsupported", "Unsupported", "2896:f741b86e41a8912a", "2896:f3cc07a5b9a304a5"}},
    {"rect-78", {"Unsupported", "Unsupported", "714:6bd7c416e09c0750", "714:6bd7c416e09c0750"}},
    {"rect-79-stretched", {"Unsupported", "Unsupported", "4545:a8dcfe29c91bb1d4", "4545:a6bf0f75b46f22a4"}},
    {"rect-80", {"Unsupported", "Unsupported", "439:591527e74bc0f696", "439:591527e74bc0f696"}},
    {"rect-81", {"Unsupported", "Unsupported", "1329:7e7397cb58df83e7", "1329:942185d39a8d50ab"}},
    {"rect-82", {"Unsupported", "Unsupported", "3547:8840d338896b494d", "3547:8840d338896b494d"}},
    {"rect-83", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-84", {"1584:da2c887599fb5773", "1584:da2c887599fb5773", "1740:6c4a23a447c4edff", "1740:6c4a23a447c4edff"}},
    {"rect-85", {"Unsupported", "Unsupported", "3774:915d6ae4fcf4bb44", "3774:fa5c582749401864"}},
    {"rect-86", {"Unsupported", "Unsupported", "3209:74ed5417fa5220ff", "3209:9f9d55c1bce49ba1"}},
    {"rect-87-stretched", {"2124:23f25a98f0d33c9d", "2124:23f25a98f0d33c9d", "2334:84d4ea83bdb15ffb", "2334:84d4ea83bdb15ffb"}},
    {"rect-88", {"Unsupported", "Unsupported", "7231:46574225a5e22dcc", "7231:46574225a5e22dcc"}},
    {"rect-89", {"Unsupported", "Unsupported", "142:6f834502067f5029", "142:6f834502067f5029"}},
    {"rect-90", {"5388:4e92e9b68d5bef44", "5388:2338f64117696ef6", "5766:fa2958f15555a01e", "5766:576b92b970cadbc8"}},
    {"rect-91", {"6268:ee296e28d317e93a", "6268:ee296e28d317e93a", "6706:4322eb2770c12c18", "6706:4322eb2770c12c18"}},
    {"rect-92", {"Unsupported", "Unsupported", "1679:739119a86154daa2", "1679:739119a86154daa2"}},
    {"rect-93", {"513:48964733c15a01e3", "513:48964733c15a01e3", "585:f3d44d9f2b2b0b65", "585:f3d44d9f2b2b0b65"}},
    {"rect-94", {"Unsupported", "Unsupported", "7037:993c4b6849c50120", "7037:a4da75cdde92f52e"}},
    {"rect-95-stretched", {"Unsupported", "Unsupported", "292:1de574103e362bd6", "292:1de574103e362bd6"}},
    {"rect-96", {"4103:af06b64ad8fb5e14", "4103:6d59051d1a5483ba", "4415:5b4c518496ca7dfa", "4415:f0c329ef4560e6fa"}},
    {"rect-97", {"Unsupported", "Unsupported", "3637:b2f17dec1d77df41", "3637:b2f17dec1d77df41"}},
    {"rect-98", {"Unsupported", "Unsupported", "2045:8857d2c4518dd04f", "2045:ec08de7e62ed2779"}},
    {"rect-99", {"8309:29c9abcfb3311870", "8309:80dfafa34ac71b6a", "8849:96171ebbde4fd760", "8849:643126f26cd8431c"}},
    {"rect-100", {"Unsupported", "Unsupported", "2444:3c58f43d1b1841dc", "2444:5b507927d6a18aa8"}},
    {"rect-101", {"471:7cfead6ed94c0580", "471:7cfead6ed94c0580", "537:987a5822d3e6a9a8", "537:987a5822d3e6a9a8"}},
    {"rect-102", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-103-stretched", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-104", {"Unsupported", "Unsupported", "4344:4b0a2088f38931a4", "4344:c1aa51b555e8b7bc"}},
    {"rect-105", {"Unsupported", "Unsupported", "5637:3963e716e29a69e2", "5637:eed850f44eabc9b6"}},
    {"rect-106", {"Unsupported", "Unsupported", "5854:a8c7530f9f2e5ea2", "5854:ca539460f033a7e0"}},
    {"rect-107", {"Unsupported", "Unsupported", "2510:7d09f7d9d735287a", "2510:10783d57d0b95906"}},
    {"rect-108", {"3346:de1e17369fbef9cc", "3346:de1e17369fbef9cc", "3622:d42c1f01fc8e8248", "3622:d42c1f01fc8e8248"}},
    {"rect-109", {"Unsupported", "Unsupported", "1856:8954b4bd5daafa59", "1856:8954b4bd5daafa59"}},
    {"rect-110", {"Unsupported", "Unsupported", "211:b6fea86c34bc0ce4", "211:b6fea86c34bc0ce4"}},
    {"rect-111-stretched", {"Unsupported", "Unsupported", "1329:e7212ce0438bb6dd", "1329:e7212ce0438bb6dd"}},
    {"rect-112", {"Unsupported", "Unsupported", "178:ab25f535f994e475", "178:ab25f535f994e475"}},
    {"rect-113", {"Unsupported", "Unsupported", "700:f62104084a4feb4c", "700:f62104084a4feb4c"}},
    {"rect-114", {"4841:7185f7fb21deb47a", "4841:7185f7fb21deb47a", "5207:447ba05bd0884934", "5207:447ba05bd0884934"}},
    {"rect-115", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-116", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-117", {"1524:a28841eb2843e463", "1524:44c7b465fa88972d", "1674:bb8f08eeb13b5bff", "1674:30c9330107436137"}},
    {"rect-118", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-119-stretched", {"Unsupported", "Unsupported", "4071:4f695e9952c56b8a", "4071:fff758e3a1881054"}},
    {"rect-120", {"Unsupported", "Unsupported", "3444:32bd21fea53b1d38", "3444:98d85900e2a175e8"}},
    {"rect-121", {"Unsupported", "Unsupported", "4272:a3eb53efbcfe104e", "4272:1d9c132823652f5a"}},
    {"rect-122", {"Unsupported", "Unsupported", "1648:94f73d2145df466c", "1648:94f73d2145df466c"}},
    {"rect-123", {"2735:a9870a87d22031f8", "2735:a0447c15066d52fa", "2981:adf91e8c7565b69c", "2981:33545f0a2fba83d0"}},
    {"rect-124", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-125", {"Unsupported", "Unsupported", "178:ab25f535f994e475", "178:ab25f535f994e475"}},
    {"rect-126", {"2405:572c56cebf47c18e", "2405:572c56cebf47c18e", "2621:bb7a0f6e2324acdc", "2621:bb7a0f6e2324acdc"}},
    {"rect-127-stretched", {"Unsupported", "Unsupported", "292:1de574103e362bd6", "292:1de574103e362bd6"}},
    {"rect-128", {"Unsupported", "Unsupported", "216:77dd1405c7a65d41", "216:77dd1405c7a65d41"}},
    {"rect-129", {"5989:cca7f51b9c4c045d", "5989:4946968169cdb537", "6439:4356c40b9d184da3", "6439:d4cc2563cb3da979"}},
    {"rect-130", {"Unsupported", "Unsupported", "2619:7f8e15e47a28485a", "2619:7f8e15e47a28485a"}},
    {"rect-131", {"Unsupported", "Unsupported", "390:bd7eb124291c8e42", "390:bd7eb124291c8e42"}},
    {"rect-132", {"Unsupported", "Unsupported", "3051:247ed8b6e2465c15", "3051:247ed8b6e2465c15"}},
    {"rect-133", {"Unsupported", "Unsupported", "2262:86dd7fdffd09482c", "2262:86dd7fdffd09482c"}},
    {"rect-134", {"Unsupported", "Unsupported", "2882:4d7809baa0fc74b4", "2882:4d7809baa0fc74b4"}},
    {"rect-135-stretched", {"2484:9fd330917ae9052b", "2484:e52f8f12c2869f4f", "2730:3bdf3a551ffd684f", "2730:4f8f3d8474603bbd"}},
    {"rect-136", {"4759:8bd526e658695ae5", "4759:6fbf941b161bd4d7", "5119:d2ba7b7076b85b5d", "5119:34e35d81f07a6d79"}},
    {"rect-137", {"Unsupported", "Unsupported", "1089:a598c2ae54f13418", "1089:a598c2ae54f13418"}},
    {"rect-138", {"6092:4d37aab9d7b391d0", "6092:b4d829f692ade306", "6518:e3e0a2160b06a8ca", "6518:59318efff1241a5a"}},
    {"rect-139", {"Unsupported", "Unsupported", "297:eb0c59eb1240fb24", "297:eb0c59eb1240fb24"}},
    {"rect-140", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-141", {"4774:ad2867b6dd80c9f5", "4774:ad2867b6dd80c9f5", "5164:71515e126ffebf31", "5164:71515e126ffebf31"}},
    {"rect-142", {"1369:04532a74e536fd17", "1369:c99cd1d287670d99", "1519:00b4ddd8c9578dc5", "1519:59bf5fbdf5bf6819"}},
    {"rect-143-stretched", {"Unsupported", "Unsupported", "7343:ebaff9685cb07382", "7343:ebaff9685cb07382"}},
    {"rect-144", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-145", {"Unsupported", "Unsupported", "2317:560500d2e81d11be", "2317:560500d2e81d11be"}},
    {"rect-146", {"Unsupported", "Unsupported", "4147:56cc0de8bf684d53", "4147:1ef83f23e52303b9"}},
    {"rect-147", {"3786:0d79c06ec0053764", "3786:0d79c06ec0053764", "4098:cbefe80c4b9161cc", "4098:cbefe80c4b9161cc"}},
    {"rect-148", {"Unsupported", "Unsupported", "6775:590ab68939ed83c0", "6775:590ab68939ed83c0"}},
    {"rect-149", {"Unsupported", "Unsupported", "602:fb442b50c3437aec", "602:fb442b50c3437aec"}},
    {"rect-150", {"3634:a1d89e334748e250", "3634:bb89d1dde4b87286", "3934:de9059a51cf8e6a4", "3934:ccc5b1fe7e457bac"}},
    {"rect-151-stretched", {"5169:df016dbb6700d5e9", "5169:ba1dabf6747bb5fb", "5559:33ba85c1371bc511", "5559:33ba85c1371bc511"}},
    {"rect-152", {"Unsupported", "Unsupported", "5654:db04dd4db973f8fa", "5654:db04dd4db973f8fa"}},
    {"rect-153", {"734:26e104f8781bf4b9", "734:26e104f8781bf4b9", "824:3072ee1050a6d59f", "824:3072ee1050a6d59f"}},
    {"rect-154", {"8497:1f92a15d5659b9fa", "8497:1f92a15d5659b9fa", "9049:3bd8be9519731026", "9049:3bd8be9519731026"}},
    {"rect-155", {"Unsupported", "Unsupported", "3620:caefdfdb14105dc6", "3620:a254c500208fb94e"}},
    {"rect-156", {"1369:a9543f19f858cdd3", "1369:a9543f19f858cdd3", "1519:507c8a1bec2122a5", "1519:507c8a1bec2122a5"}},
    {"rect-157", {"Unsupported", "Unsupported", "4002:0c8f10ea5afab7ac", "4002:dead0e25417ca288"}},
    {"rect-158", {"Unsupported", "Unsupported", "3545:f0eb6553e35b1d1d", "3545:44f7a01a88065279"}},
    {"rect-159-stretched", {"597:cf4c91cbb239c336", "597:57867e665592631c", "681:fb7ba819c04c0ec8", "681:a1f52a2fe14ef1be"}},
    {"rect-160", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-161", {"Unsupported", "Unsupported", "2000:a3f323a62fb207d5", "2000:a3f323a62fb207d5"}},
    {"rect-162", {"71:dd2327c9ed6de963", "71:dd2327c9ed6de963", "83:16706b3dfd0fb8e7", "83:16706b3dfd0fb8e7"}},
    {"rect-163", {"Unsupported", "Unsupported", "2682:c1a2cc7bca749bec", "2682:38aa6ed4aa1d40c0"}},
    {"rect-164", {"Unsupported", "Unsupported", "1794:ed09d7b01bff45ee", "1794:db90b8d98e17c238"}},
    {"rect-165", {"Unsupported", "Unsupported", "2619:067f4ba468598782", "2619:067f4ba468598782"}},
    {"rect-166", {"Unsupported", "Unsupported", "6843:bab10b0237fd1f5f", "6843:bab10b0237fd1f5f"}},
    {"rect-167-stretched", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-168", {"123:adb0312c69ae4e63", "123:adb0312c69ae4e63", "147:be0a74b7bb101ecf", "147:be0a74b7bb101ecf"}},
    {"rect-169", {"Unsupported", "Unsupported", "3815:98c6eeef30232393", "3815:f1289982a1fffaa1"}},
    {"rect-170", {"Unsupported", "Unsupported", "734:b1c14ab24bea6c4d", "734:b1c14ab24bea6c4d"}},
    {"rect-171", {"7060:0dc9f4d8241d3cfa", "7060:67bb0a3048558fe4", "7552:686600697f250676", "7552:6faf5677ddf27eaa"}},
    {"rect-172", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-173", {"292:08f78fde375236c7", "292:08f78fde375236c7", "340:13664acc3902651f", "340:13664acc3902651f"}},
    {"rect-174", {"Unsupported", "Unsupported", "1161:ed66c342c6bb24bd", "1161:ed66c342c6bb24bd"}},
    {"rect-175-stretched", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-176", {"Unsupported", "Unsupported", "2085:2b24ca23fce58706", "2085:2b24ca23fce58706"}},
    {"rect-177", {"97:22341adae0dbc7ab", "97:22341adae0dbc7ab", "115:75b42b68d9b18903", "115:75b42b68d9b18903"}},
    {"rect-178", {"Unsupported", "Unsupported", "1882:e1fdb43627585b08", "1882:103a63ed477578da"}},
    {"rect-179", {"Unsupported", "Unsupported", "7743:1da4f75c9cb1dd5c", "7743:1da4f75c9cb1dd5c"}},
    {"rect-180", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-181", {"Unsupported", "Unsupported", "4069:793f471a58a0cf0d", "4069:793f471a58a0cf0d"}},
    {"rect-182", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-183-stretched", {"3749:3accda0b09439a7e", "3749:883bd5947f149414", "4085:15b2456971e7666c", "4085:05b84cf071865414"}},
    {"rect-184", {"Unsupported", "Unsupported", "142:6f834502067f5029", "142:6f834502067f5029"}},
    {"rect-185", {"Unsupported", "Unsupported", "7522:ffb4c83e880b28e6", "7522:ffb4c83e880b28e6"}},
    {"rect-186", {"4926:7d9a8b0b4229ee6e", "4926:7d9a8b0b4229ee6e", "5328:8e7d6d9621bf1c30", "5328:8e7d6d9621bf1c30"}},
    {"rect-187", {"Unsupported", "Unsupported", "1607:5626c337a3e40e5c", "1607:1e66572e38380b4c"}},
    {"rect-188", {"5388:e20e2bf3851f23fb", "5388:16a591b995df12f9", "5766:e34ce88066a216d5", "5766:a7ad185bd5393b4b"}},
    {"rect-189", {"Unsupported", "Unsupported", "4849:adfb6388256ce881", "4849:adfb6388256ce881"}},
    {"rect-190", {"Unsupported", "Unsupported", "1853:f989350a445067ed", "1853:87521c19fc71b55f"}},
    {"rect-191-stretched", {"Unsupported", "Unsupported", "2279:9e015c9065118699", "2279:723b7d8a35679eed"}},
    {"rect-192", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-193", {"Unsupported", "Unsupported", "1757:beebd4229063a725", "1757:58108ad4b9c58a17"}},
    {"rect-194", {"Unsupported", "Unsupported", "1246:54aa943bb66cb6e6", "1246:54aa943bb66cb6e6"}},
    {"rect-195", {"Unsupported", "Unsupported", "3733:a01d653d28d40cc1", "3733:c84256478fbc9819"}},
    {"rect-196", {"Unsupported", "Unsupported", "439:a555f60577269304", "439:a555f60577269304"}},
    {"rect-197", {"Unsupported", "Unsupported", "3213:cf7f60e52629f6b1", "3213:cf7f60e52629f6b1"}},
    {"rect-198", {"Unsupported", "Unsupported", "338:e701d0dfec0880a1", "338:e701d0dfec0880a1"}},
    {"rect-199-stretched", {"Unsupported", "Unsupported", "733:4c8b10c532a08199", "733:512e5552abaa8a33"}},
    {"rect-200", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-201", {"Unsupported", "Unsupported", "658:ec3322d7be7eb996", "658:9eb9a1abfab87874"}},
    {"rect-202", {"Unsupported", "Unsupported", "646:e55325fd4f0190b6", "646:e55325fd4f0190b6"}},
    {"rect-203", {"Unsupported", "Unsupported", "216:f0a357fbc4857435", "216:f0a357fbc4857435"}},
    {"rect-204", {"Unsupported", "Unsupported", "3295:5b7c1b53fe0da339", "3295:5b7c1b53fe0da339"}},
    {"rect-205", {"Unsupported", "Unsupported", "660:0d1bfc3d1c4ec50c", "660:0d1bfc3d1c4ec50c"}},
    {"rect-206", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-207-stretched", {"8027:ff62b62d189fbd1b", "8027:3a021e4e11e02f67", "8549:2f17181fb2087921", "8549:7fe90d860042be67"}},
    {"rect-208", {"Unsupported", "Unsupported", "390:c30d29407ca6c57a", "390:c30d29407ca6c57a"}},
    {"rect-209", {"34:fd1ec4877483a7a2", "34:fd1ec4877483a7a2", "40:2d86a5bd156907ca", "40:2d86a5bd156907ca"}},
    {"rect-210", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-211", {"Unsupported", "Unsupported", "297:9885ce07be598ae0", "297:9885ce07be598ae0"}},
    {"rect-212", {"Unsupported", "Unsupported", "2707:3b2fa8249066cf4d", "2707:9a5ec651a6d51b29"}},
    {"rect-213", {"4684:db2e1d84adee0eca", "4684:db2e1d84adee0eca", "5014:0598565b2b9419e6", "5014:0598565b2b9419e6"}},
    {"rect-214", {"Unsupported", "Unsupported", "2541:6e2e0d7bdf90ddfb", "2541:05001c8f23546283"}},
    {"rect-215-stretched", {"123:adb0312c69ae4e63", "123:adb0312c69ae4e63", "147:be0a74b7bb101ecf", "147:be0a74b7bb101ecf"}},
    {"rect-216", {"Unsupported", "Unsupported", "930:9bdb649e4f5cdeca", "930:6331bbe421c7be72"}},
    {"rect-217", {"Unsupported", "Unsupported", "943:3cf1b36825f5a830", "943:b6a5a65e6d55846c"}},
    {"rect-218", {"Unsupported", "Unsupported", "211:b6fea86c34bc0ce4", "211:b6fea86c34bc0ce4"}},
    {"rect-219", {"123:adb0312c69ae4e63", "123:adb0312c69ae4e63", "147:be0a74b7bb101ecf", "147:be0a74b7bb101ecf"}},
    {"rect-220", {"Unsupported", "Unsupported", "1254:d09699c9c0f13508", "1254:d09699c9c0f13508"}},
    {"rect-221", {"Unsupported", "Unsupported", "211:b6fea86c34bc0ce4", "211:b6fea86c34bc0ce4"}},
    {"rect-222", {"3065:922613487b12e930", "3065:922613487b12e930", "3341:e67a88c4e68354fe", "3341:e67a88c4e68354fe"}},
    {"rect-223-stretched", {"Unsupported", "Unsupported", "1536:3073ef05fd00b2f3", "1536:3073ef05fd00b2f3"}},
    {"rect-224", {"Unsupported", "Unsupported", "4761:5494fae63c3b9337", "4761:6da7ee8792aabcfd"}},
    {"rect-225", {"7463:f9051d9fbd2d7700", "7463:f9051d9fbd2d7700", "7949:f0bd8dba52386e1a", "7949:f0bd8dba52386e1a"}},
    {"rect-226", {"Unsupported", "Unsupported", "85:ac505a20ce46d7f7", "85:ac505a20ce46d7f7"}},
    {"rect-227", {"Unsupported", "Unsupported", "2354:08499a41bf77c138", "2354:08499a41bf77c138"}},
    {"rect-228", {"2544:01cb99589e94e95b", "2544:01cb99589e94e95b", "2796:b63b965aff87592f", "2796:b63b965aff87592f"}},
    {"rect-229", {"Unsupported", "Unsupported", "4271:4badc1e1b9f4b67c", "4271:4badc1e1b9f4b67c"}},
    {"rect-230", {"Unsupported", "Unsupported", "1609:439448c67c37a01c", "1609:64c04c437bb0315c"}},
    {"rect-231-stretched", {"Unsupported", "Unsupported", "4342:5bd6881f90cb429e", "4342:5bd6881f90cb429e"}},
    {"rect-232", {"Unsupported", "Unsupported", "297:4f40c61dda8e6d0c", "297:4f40c61dda8e6d0c"}},
    {"rect-233", {"Unsupported", "Unsupported", "955:5084ee7edf397264", "955:5084ee7edf397264"}},
    {"rect-234", {"1153:6b694f288515d95b", "1153:6b694f288515d95b", "1279:7cde29934d7b913d", "1279:7cde29934d7b913d"}},
    {"rect-235", {"Unsupported", "Unsupported", "142:6f834502067f5029", "142:6f834502067f5029"}},
    {"rect-236", {"Unsupported", "Unsupported", "1741:8d4f27c76501f5b0", "1741:8d4f27c76501f5b0"}},
    {"rect-237", {"4546:28b884cb2a2b01ef", "4546:353e8e8e45441591", "4918:0f27e01f1159139d", "4918:c18aaad452db8581"}},
    {"rect-238", {"Unsupported", "Unsupported", "1537:0e915277af2de534", "1537:0e915277af2de534"}},
    {"rect-239-stretched", {"Unsupported", "Unsupported", "3385:bf28b691832b459f", "3385:bf28b691832b459f"}},
    {"cross", {"233:b4cf48367cba2a4b", "233:b4cf48367cba2a4b", "281:f946a3981a99e78b", "281:f946a3981a99e78b"}},
    {"cross-center", {"Unsupported", "Unsupported", "375:22a410b743d40fee", "375:22a410b743d40fee"}},
    {"cross-arm", {"Unsupported", "Unsupported", "375:85d53857879ea9e8", "375:85d53857879ea9e8"}},
    {"cross-both-arms", {"Unsupported", "Unsupported", "479:1ae82c7263f8b486", "479:1ae82c7263f8b486"}},
    {"cross-a-and-b-arms", {"Unsupported", "Unsupported", "479:ae798ced15aab00b", "479:5137408b9f21e4d5"}},
    {"cross-nested-arm", {"Unsupported", "Unsupported", "481:44d0e59e14c51286", "481:44d0e59e14c51286"}},
    {"cross-outside", {"Unsupported", "Unsupported", "371:7f412d79c44c1d3c", "371:7f412d79c44c1d3c"}},
};
// clang-format on

TEST(CanonicalGoldenTest, DigestsMatchPinnedTable) {
  if (std::getenv("TOPODB_PRINT_CANONICAL_GOLDEN") != nullptr) {
    // Print the current code's table instead of checking it.
    ForEachDigest([](const std::string& name, int option,
                     const std::string& digest) {
      if (option == 0) std::printf("    {\"%s\", {", name.c_str());
      std::printf("\"%s\"%s", digest.c_str(), option == 3 ? "}},\n" : ", ");
    });
    return;
  }
  std::vector<std::string> names;
  ForEachDigest([&](const std::string& name, int option,
                    const std::string& digest) {
    if (option == 0) names.push_back(name);
    const size_t k = names.size() - 1;
    ASSERT_LT(k, std::size(kGolden)) << "corpus grew past the table";
    ASSERT_EQ(name, kGolden[k].name) << "corpus order changed";
    EXPECT_EQ(digest, kGolden[k].digest[option])
        << name << " under options #" << option;
  });
  EXPECT_EQ(names.size(), std::size(kGolden));
}

TEST(CanonicalGoldenTest, CorpusCoversEveryPath) {
  // Unsupported: exterior-free form of a disconnected instance.
  int unsupported = 0;
  for (const Golden& g : kGolden) {
    for (const char* d : g.digest) {
      unsupported += std::string(d) == "Unsupported";
    }
  }
  EXPECT_GT(unsupported, 0);
  EXPECT_GE(std::size(kGolden), 200u);
}


}  // namespace
}  // namespace topodb
