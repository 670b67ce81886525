#include "src/query/eval.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <deque>
#include <limits>
#include <mutex>
#include <optional>
#include <set>
#include <thread>
#include <unordered_map>

#include "src/base/check.h"
#include "src/base/threading.h"

namespace topodb {

namespace {

// The reference oracle (tests/query_reference.cc) produces these errors,
// with these messages, at the same enumeration points.
Status BudgetExhaustedError(int64_t limit) {
  return Status::ResourceExhausted(
      "region quantifier candidate budget exhausted (max_region_candidates=" +
      std::to_string(limit) + ")");
}

Status StepsExhaustedError(int64_t limit) {
  return Status::ResourceExhausted(
      "region quantifier enumeration exceeded max_enumeration_steps=" +
      std::to_string(limit));
}

}  // namespace

// Resumable enumerator of the raw region-quantifier candidates: connected
// face sets of the dual graph, each produced exactly once (enumeration by
// canonical root + forbidden set), in exactly the order of the reference
// oracle's recursive enumeration (tests/query_reference.cc) — the explicit
// stack mirrors its call tree, which is what makes budget error points a
// property of the instance alone.
class RawCandidateEnumerator {
 public:
  explicit RawCandidateEnumerator(const std::vector<std::vector<int>>& dual)
      : dual_(dual),
        nf_(static_cast<int>(dual.size())),
        mask_(nf_),
        chosen_(nf_, 0),
        banned_(nf_, 0) {
    if (nf_ <= 64) {
      dual_mask_.assign(nf_, 0);
      for (int f = 0; f < nf_; ++f) {
        for (int g : dual_[f]) dual_mask_[f] |= uint64_t{1} << g;
      }
    }
  }

  // Advances to the next candidate (in mask()); false when done.
  bool Next() { return nf_ <= 64 ? NextWord() : NextGeneral(); }

  // The current candidate as a face bitset.
  const CellSet& mask() const { return mask_; }

 private:
  // Word-mode stepping (nf_ <= 64): frames carry their unconsumed frontier
  // as a single word, consumed in ascending bit order — the same order as
  // the sorted frontier vectors of the general path, so both paths emit
  // the identical candidate sequence. A child's frontier is the parent's
  // remaining frontier OR the new face's neighbor mask; faces that are
  // already chosen or banned are filtered at consumption time, exactly as
  // in the general path (both states are stable for a frame's lifetime).
  bool NextWord() {
    while (true) {
      if (depth_ == 0) {
        ++root_;
        if (root_ >= nf_) return false;
        chosen_word_ = uint64_t{1} << root_;
        banned_word_ = (uint64_t{1} << root_) - 1;
        mask_.set_word(0, chosen_word_);
        PushWordFrame(root_, dual_mask_[root_]);
        return true;
      }
      WordFrame& top = word_stack_[depth_ - 1];
      if (top.frontier) {
        const int g = std::countr_zero(top.frontier);
        top.frontier &= top.frontier - 1;
        if ((banned_word_ | chosen_word_) >> g & 1) continue;
        chosen_word_ |= uint64_t{1} << g;
        mask_.set_word(0, chosen_word_);
        PushWordFrame(g, top.frontier | dual_mask_[g]);
        return true;
      }
      banned_word_ &= ~top.banned_here;
      const int entry = top.entry;
      --depth_;
      chosen_word_ &= ~(uint64_t{1} << entry);
      mask_.set_word(0, chosen_word_);
      if (depth_ > 0) {
        banned_word_ |= uint64_t{1} << entry;
        word_stack_[depth_ - 1].banned_here |= uint64_t{1} << entry;
      }
    }
  }

  // General stepping (vector frontiers, any nf_). The frontier of a frame
  // is inherited from its parent (sorted merge with the new face's
  // neighbors) instead of recomputed from the whole chosen set; entries
  // that are chosen or banned are skipped at consumption time. Both states
  // are stable for a frame's whole lifetime (the chosen set reverts to the
  // frame's base whenever control returns to it, and any ban visible at
  // push time is released only after the frame pops), so the consumed
  // sequence is exactly the recomputed frontier.
  bool NextGeneral() {
    while (true) {
      if (depth_ == 0) {
        ++root_;
        if (root_ >= nf_) return false;
        std::fill(chosen_.begin(), chosen_.end(), 0);
        std::fill(banned_.begin(), banned_.end(), 0);
        mask_.Clear();
        for (int f = 0; f < root_; ++f) banned_[f] = 1;
        chosen_[root_] = 1;
        mask_.Set(root_);
        Frame& frame = PushFrame(root_);
        frame.frontier = dual_[root_];
        return true;
      }
      Frame& top = stack_[depth_ - 1];
      if (top.idx < top.frontier.size()) {
        const int g = top.frontier[top.idx++];
        if (banned_[g] || chosen_[g]) continue;
        chosen_[g] = 1;
        mask_.Set(g);
        Frame& child = PushFrame(g);
        // `top` stays valid: PushFrame never reallocates live frames'
        // vectors, and child.frontier is a distinct vector.
        child.frontier.reserve(top.frontier.size() + dual_[g].size());
        std::set_union(top.frontier.begin(), top.frontier.end(),
                       dual_[g].begin(), dual_[g].end(),
                       std::back_inserter(child.frontier));
        return true;
      }
      for (int g : top.banned_here) banned_[g] = 0;
      const int entry = top.entry;
      --depth_;  // Pop; the frame's vectors stay allocated for reuse.
      chosen_[entry] = 0;
      mask_.Reset(entry);
      if (depth_ > 0) {
        banned_[entry] = 1;
        stack_[depth_ - 1].banned_here.push_back(entry);
      }
    }
  }

  struct Frame {
    int entry;                     // Face whose choice opened this frame.
    std::vector<int> frontier;     // Sorted, deduplicated.
    size_t idx;                    // Next frontier entry to try.
    std::vector<int> banned_here;  // Bans added by completed siblings.
  };

  struct WordFrame {
    int entry;             // Face whose choice opened this frame.
    uint64_t frontier;     // Unconsumed frontier faces.
    uint64_t banned_here;  // Bans added by completed siblings.
  };

  void PushWordFrame(int entry, uint64_t frontier) {
    if (depth_ == word_stack_.size()) word_stack_.emplace_back();
    WordFrame& frame = word_stack_[depth_++];
    frame.entry = entry;
    frame.frontier = frontier;
    frame.banned_here = 0;
  }

  // Grows the live stack by one frame, reusing popped frames' vector
  // capacity. stack_ is a deque so growth never moves live frames.
  Frame& PushFrame(int entry) {
    if (depth_ == stack_.size()) stack_.emplace_back();
    Frame& frame = stack_[depth_++];
    frame.entry = entry;
    frame.frontier.clear();
    frame.idx = 0;
    frame.banned_here.clear();
    return frame;
  }

  const std::vector<std::vector<int>>& dual_;
  int nf_;
  int root_ = -1;
  CellSet mask_;
  std::vector<char> chosen_, banned_;
  std::deque<Frame> stack_;
  size_t depth_ = 0;
  // Word-mode state (nf_ <= 64 only).
  std::vector<uint64_t> dual_mask_;
  uint64_t chosen_word_ = 0, banned_word_ = 0;
  std::vector<WordFrame> word_stack_;
};

// The internally synchronized mutable caches of one engine. Lock order:
// range_mu before memo_mu (FetchDiscValue holds range_mu while the disc
// check takes memo_mu); no path acquires them in the other order.
struct QueryEngine::QueryCaches {
  // Memoized disc checks, bucketed by face-set hash; full face-set
  // equality confirms hits, so collisions are handled, never wrong.
  struct MemoEntry {
    CellSet faces;
    bool is_disc;
    CellSet completed;
  };
  std::mutex memo_mu;
  std::unordered_map<uint64_t, std::vector<MemoEntry>> memo;
  // Memo traffic tallies (guarded by memo_mu; read via cache_stats()).
  uint64_t memo_hits = 0;
  uint64_t memo_misses = 0;

  // The materialized region-quantifier range: disc values in enumeration
  // order, extended lazily and shared by every binding, evaluation and
  // batch on this engine. A deque keeps appended entries at stable
  // addresses, so FetchDiscValue can hand out pointers.
  std::mutex range_mu;
  std::deque<DiscValue> values;
  std::unique_ptr<RawCandidateEnumerator> raw;
  int64_t raw_total = 0;
  bool exhausted = false;
};

QueryEngine::QueryEngine(CellComplex complex) : complex_(std::move(complex)) {}
QueryEngine::QueryEngine(QueryEngine&&) noexcept = default;
QueryEngine& QueryEngine::operator=(QueryEngine&&) noexcept = default;
QueryEngine::~QueryEngine() = default;

Result<QueryEngine> QueryEngine::Build(const SpatialInstance& instance) {
  TOPODB_ASSIGN_OR_RETURN(CellComplex complex, CellComplex::Build(instance));
  QueryEngine engine(std::move(complex));
  engine.BuildUniverse();
  return engine;
}

void QueryEngine::BuildUniverse() {
  nv_ = static_cast<int>(complex_.vertices().size());
  ne_ = static_cast<int>(complex_.edges().size());
  nf_ = static_cast<int>(complex_.faces().size());
  const int total = nv_ + ne_ + nf_;
  // Boundary cells per cell, excluding the cell itself.
  std::vector<std::vector<int>> closure(total);
  incidence_.assign(total, {});
  face_dual_.assign(nf_, {});
  vertex_faces_.assign(nv_, {});
  edge_faces_.assign(ne_, {-1, -1});

  auto edge_cell = [&](int e) { return nv_ + e; };
  auto face_cell = [&](int f) { return nv_ + ne_ + f; };

  auto add_incidence = [&](int a, int b) {
    incidence_[a].push_back(b);
    incidence_[b].push_back(a);
  };

  for (int e = 0; e < ne_; ++e) {
    auto [u, v] = complex_.EdgeEndpoints(e);
    closure[edge_cell(e)].push_back(u);
    if (v != u) closure[edge_cell(e)].push_back(v);
    add_incidence(edge_cell(e), u);
    if (v != u) add_incidence(edge_cell(e), v);
  }
  // Face closures: edges (and their endpoints) on any of its cycles.
  for (int f = 0; f < nf_; ++f) {
    std::set<int> boundary;
    for (int rep : complex_.faces()[f].cycle_darts) {
      for (int d : complex_.FaceCycle(rep)) {
        const int e = complex_.darts()[d].edge;
        boundary.insert(edge_cell(e));
        auto [u, v] = complex_.EdgeEndpoints(e);
        boundary.insert(u);
        boundary.insert(v);
      }
    }
    for (int cell : boundary) {
      closure[face_cell(f)].push_back(cell);
      if (cell >= nv_) add_incidence(face_cell(f), cell);  // Face-edge.
    }
  }
  // Face duals: the two sides of every edge.
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = complex_.EdgeFaces(e);
    edge_faces_[e] = {lf, rf};
    if (lf != rf) {
      face_dual_[lf].push_back(rf);
      face_dual_[rf].push_back(lf);
    }
  }
  for (auto& nbrs : face_dual_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  // Extended adjacency: edge-shared neighbors plus corner-touching faces
  // (complement connectivity can route through a shared complement
  // vertex, so the face-level check needs vertex adjacency too).
  face_adj_ext_.assign(nf_, {});
  for (int f = 0; f < nf_; ++f) face_adj_ext_[f] = face_dual_[f];
  // Vertex incident faces from darts (faces of darts and of their twins).
  for (int v = 0; v < nv_; ++v) {
    std::set<int> faces;
    for (int d : complex_.vertices()[v].darts) {
      faces.insert(complex_.darts()[d].face);
      faces.insert(complex_.darts()[complex_.darts()[d].twin].face);
    }
    vertex_faces_[v].assign(faces.begin(), faces.end());
    if (vertex_faces_[v].empty()) has_isolated_vertex_ = true;
    for (int a : vertex_faces_[v]) {
      for (int b : vertex_faces_[v]) {
        if (a != b) face_adj_ext_[a].push_back(b);
      }
    }
  }
  for (auto& nbrs : face_adj_ext_) {
    std::sort(nbrs.begin(), nbrs.end());
    nbrs.erase(std::unique(nbrs.begin(), nbrs.end()), nbrs.end());
  }
  if (nf_ <= 64) {
    face_dual_mask_.assign(nf_, 0);
    face_adj_ext_mask_.assign(nf_, 0);
    for (int f = 0; f < nf_; ++f) {
      for (int g : face_dual_[f]) face_dual_mask_[f] |= uint64_t{1} << g;
      for (int g : face_adj_ext_[f]) {
        face_adj_ext_mask_[f] |= uint64_t{1} << g;
      }
    }
  }
  // The bitset universe: per-cell closures including the cell itself, so
  // the closure of any set is the word-parallel OR of its members'.
  closure_bits_.assign(total, CellSet(total));
  for (int c = 0; c < total; ++c) {
    closure_bits_[c].Set(c);
    for (int b : closure[c]) closure_bits_[c].Set(b);
  }
  // Region values: cells with interior sign.
  for (size_t r = 0; r < complex_.region_names().size(); ++r) {
    CellSet bits(total);
    for (int v = 0; v < nv_; ++v) {
      if (complex_.vertices()[v].label[r] == Sign::kInterior) bits.Set(v);
    }
    for (int e = 0; e < ne_; ++e) {
      if (complex_.edges()[e].label[r] == Sign::kInterior) {
        bits.Set(edge_cell(e));
      }
    }
    for (int f = 0; f < nf_; ++f) {
      if (complex_.faces()[f].label[r] == Sign::kInterior) {
        bits.Set(face_cell(f));
      }
    }
    const std::string& name = complex_.region_names()[r];
    region_closure_bits_[name] = ClosureBits(bits);
    region_bits_[name] = std::move(bits);
  }
  caches_ = std::make_unique<QueryCaches>();
}

bool QueryEngine::ComputeDiscValueBits(const CellSet& face_set,
                                       CellSet* completed) const {
  const int total = nv_ + ne_ + nf_;
  completed->Assign(total);
  if (!face_set.Any()) return false;
  face_set.ForEachSetBit(
      [&](int f) { completed->Set(nv_ + ne_ + f); });
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = edge_faces_[e];
    if (face_set.Test(lf) && face_set.Test(rf)) completed->Set(nv_ + e);
  }
  for (int v = 0; v < nv_; ++v) {
    if (vertex_faces_[v].empty()) continue;  // See IsDiscValue (eval.h).
    bool all = true;
    for (int f : vertex_faces_[v]) {
      if (!face_set.Test(f)) {
        all = false;
        break;
      }
    }
    if (all) completed->Set(v);
  }
  // Connectivity of the completion over the incidence graph.
  {
    const int count = completed->Count();
    int start = -1;
    for (int c = 0; c < total; ++c) {
      if (completed->Test(c)) {
        start = c;
        break;
      }
    }
    CellSet seen(total);
    seen.Set(start);
    std::vector<int> stack = {start};
    int reached = 1;
    while (!stack.empty()) {
      const int c = stack.back();
      stack.pop_back();
      for (int d : incidence_[c]) {
        if (completed->Test(d) && !seen.Test(d)) {
          seen.Set(d);
          ++reached;
          stack.push_back(d);
        }
      }
    }
    if (reached != count) return false;
  }
  // Sphere-complement connectivity (complement + point at infinity).
  {
    const int exterior_cell = nv_ + ne_ + complex_.exterior_face();
    const int complement = total - completed->Count() + 1;
    CellSet seen(total);
    std::vector<int> stack;
    int reached = 1;  // The point at infinity.
    if (!completed->Test(exterior_cell)) {
      seen.Set(exterior_cell);
      ++reached;
      stack.push_back(exterior_cell);
    }
    while (!stack.empty()) {
      const int c = stack.back();
      stack.pop_back();
      for (int d : incidence_[c]) {
        if (!completed->Test(d) && !seen.Test(d)) {
          seen.Set(d);
          ++reached;
          stack.push_back(d);
        }
      }
    }
    if (reached != complement) return false;
  }
  return true;
}

bool QueryEngine::FaceSetIsDisc(const CellSet& face_set) const {
  // Completion connectivity == dual connectivity of the chosen faces: an
  // edge between two chosen faces is completed (a dual step stays inside
  // the completion), and conversely a path in the completion crosses only
  // completed edges (both sides chosen) and completed vertices (all faces
  // around them chosen, consecutively edge-adjacent).
  if (nf_ <= 64) {
    // Word-parallel path: connectivity by iterated neighbor-mask
    // expansion over a single word.
    const uint64_t chosen = face_set.word(0);
    if (chosen == 0) return false;
    uint64_t reached = chosen & (~chosen + 1);  // Lowest chosen face.
    uint64_t frontier = reached;
    while (frontier) {
      uint64_t next = 0;
      for (uint64_t w = frontier; w; w &= w - 1) {
        next |= face_dual_mask_[std::countr_zero(w)];
      }
      frontier = next & chosen & ~reached;
      reached |= frontier;
    }
    if (reached != chosen) return false;
    const uint64_t all =
        nf_ == 64 ? ~uint64_t{0} : (uint64_t{1} << nf_) - 1;
    const uint64_t unchosen = all & ~chosen;
    if (unchosen == 0) return true;  // Complement is the point at infinity.
    const uint64_t ext_bit = uint64_t{1} << complex_.exterior_face();
    if (chosen & ext_bit) return false;  // Infinity is cut off.
    reached = ext_bit;
    frontier = reached;
    while (frontier) {
      uint64_t next = 0;
      for (uint64_t w = frontier; w; w &= w - 1) {
        next |= face_adj_ext_mask_[std::countr_zero(w)];
      }
      frontier = next & unchosen & ~reached;
      reached |= frontier;
    }
    return reached == unchosen;
  }
  const int nchosen = face_set.Count();
  if (nchosen == 0) return false;
  // Scratch reused across calls (this runs once per raw enumeration
  // candidate; allocating here dominates the BFS itself).
  thread_local std::vector<char> seen;
  thread_local std::vector<int> stack;
  {
    int start = -1;
    for (int f = 0; f < nf_; ++f) {
      if (face_set.Test(f)) {
        start = f;
        break;
      }
    }
    seen.assign(nf_, 0);
    stack.clear();
    stack.push_back(start);
    seen[start] = 1;
    int reached = 1;
    while (!stack.empty()) {
      const int f = stack.back();
      stack.pop_back();
      for (int g : face_dual_[f]) {
        if (face_set.Test(g) && !seen[g]) {
          seen[g] = 1;
          ++reached;
          stack.push_back(g);
        }
      }
    }
    if (reached != nchosen) return false;
  }
  // Sphere-complement connectivity at the face level: every complement
  // edge/vertex is directly incident to an unchosen face, so complement
  // components biject with components of the unchosen faces under
  // face_adj_ext_ (plus the point at infinity on the exterior face).
  const int unchosen = nf_ - nchosen;
  if (unchosen == 0) return true;  // Complement is the point at infinity.
  const int exterior = complex_.exterior_face();
  if (face_set.Test(exterior)) return false;  // Infinity is cut off.
  seen.assign(nf_, 0);
  stack.clear();
  stack.push_back(exterior);
  seen[exterior] = 1;
  int reached = 1;
  while (!stack.empty()) {
    const int f = stack.back();
    stack.pop_back();
    for (int g : face_adj_ext_[f]) {
      if (!face_set.Test(g) && !seen[g]) {
        seen[g] = 1;
        ++reached;
        stack.push_back(g);
      }
    }
  }
  return reached == unchosen;
}

void QueryEngine::CompleteFaceSet(const CellSet& face_set,
                                  CellSet* completed) const {
  completed->Assign(nv_ + ne_ + nf_);
  face_set.ForEachSetBit([&](int f) { completed->Set(nv_ + ne_ + f); });
  for (int e = 0; e < ne_; ++e) {
    auto [lf, rf] = edge_faces_[e];
    if (face_set.Test(lf) && face_set.Test(rf)) completed->Set(nv_ + e);
  }
  for (int v = 0; v < nv_; ++v) {
    if (vertex_faces_[v].empty()) continue;
    bool all = true;
    for (int f : vertex_faces_[v]) {
      if (!face_set.Test(f)) {
        all = false;
        break;
      }
    }
    if (all) completed->Set(v);
  }
}

bool QueryEngine::IsDiscValue(const CellSet& face_set,
                              CellSet* completed) const {
  const uint64_t hash = face_set.Hash();
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    auto it = caches_->memo.find(hash);
    if (it != caches_->memo.end()) {
      for (const QueryCaches::MemoEntry& entry : it->second) {
        if (entry.faces == face_set) {
          ++caches_->memo_hits;
          *completed = entry.completed;
          return entry.is_disc;
        }
      }
    }
  }
  bool is_disc;
  if (has_isolated_vertex_) {
    // Degenerate complexes fall back to the exact cell-level check.
    is_disc = ComputeDiscValueBits(face_set, completed);
  } else {
    is_disc = FaceSetIsDisc(face_set);
    completed->Assign(nv_ + ne_ + nf_);
    if (is_disc) CompleteFaceSet(face_set, completed);
  }
  std::lock_guard<std::mutex> lock(caches_->memo_mu);
  ++caches_->memo_misses;
  caches_->memo[hash].push_back({face_set, is_disc, *completed});
  return is_disc;
}

QueryEngine::CacheStats QueryEngine::cache_stats() const {
  CacheStats stats;
  {
    std::lock_guard<std::mutex> lock(caches_->memo_mu);
    stats.disc_memo_hits = caches_->memo_hits;
    stats.disc_memo_misses = caches_->memo_misses;
  }
  std::lock_guard<std::mutex> lock(caches_->range_mu);
  stats.materialized_discs = static_cast<int64_t>(caches_->values.size());
  stats.raw_candidates = caches_->raw_total;
  return stats;
}

CellSet QueryEngine::ClosureBits(const CellSet& cells) const {
  CellSet out = cells;
  cells.ForEachSetBit([&](int c) { out |= closure_bits_[c]; });
  return out;
}

Result<const QueryEngine::DiscValue*> QueryEngine::FetchDiscValue(
    int64_t k, int64_t max_steps, const StopSignal& stop) const {
  QueryCaches& caches = *caches_;
  const bool stop_armed = stop.armed();
  std::lock_guard<std::mutex> lock(caches.range_mu);
  while (static_cast<int64_t>(caches.values.size()) <= k &&
         !caches.exhausted) {
    // The next raw candidate would be number raw_total + 1; a fresh
    // enumeration errors when its per-instantiation counter exceeds
    // max_steps, and every instantiation replays the same prefix of the
    // same sequence, so the global counter is exactly its counter.
    if (caches.raw_total >= max_steps) return StepsExhaustedError(max_steps);
    // Cancellation checkpoint: range extension is the unbounded part of a
    // region quantifier, so poll here (cheaply, once per ~1k candidates).
    if (stop_armed && (caches.raw_total & 1023) == 0 && stop.ShouldStop()) {
      return stop.Check();
    }
    if (caches.raw == nullptr) {
      caches.raw = std::make_unique<RawCandidateEnumerator>(face_dual_);
    }
    if (!caches.raw->Next()) {
      caches.exhausted = true;
      break;
    }
    ++caches.raw_total;
    // Each raw candidate is produced exactly once across the engine's
    // lifetime (canonical-root enumeration), so the disc check runs
    // directly — the materialized range, not the per-face-set memo, is
    // the reuse layer here — and the completion is only materialized for
    // candidates that are discs.
    const CellSet& faces = caches.raw->mask();
    bool is_disc;
    CellSet completed;
    if (has_isolated_vertex_) {
      is_disc = ComputeDiscValueBits(faces, &completed);
    } else {
      is_disc = FaceSetIsDisc(faces);
      if (is_disc) CompleteFaceSet(faces, &completed);
    }
    if (is_disc) {
      DiscValue value;
      // The closure of a completion is the union of its chosen faces'
      // precomputed closures: completed edges/vertices lie inside those
      // closures already, and an edge's closure (its endpoints) inside
      // its faces'.
      value.closure = completed;
      faces.ForEachSetBit(
          [&](int f) { value.closure |= closure_bits_[nv_ + ne_ + f]; });
      value.cells = std::move(completed);
      value.raw_index = caches.raw_total;
      caches.values.push_back(std::move(value));
    }
  }
  if (static_cast<int64_t>(caches.values.size()) > k) {
    const DiscValue& value = caches.values[k];
    // Cached from a run with a larger step limit; this caller's fresh
    // enumeration would have errored before producing it.
    if (value.raw_index > max_steps) return StepsExhaustedError(max_steps);
    return &value;
  }
  if (caches.raw_total > max_steps) return StepsExhaustedError(max_steps);
  return static_cast<const DiscValue*>(nullptr);
}

// --- Bitset evaluation (packed words, shared memoized quantifier range) ---

class BitsetEvaluator {
 public:
  // A bound region/cell variable: the value and its topological closure,
  // computed once at bind time so atoms never recompute closures.
  struct Binding {
    CellSet value;
    CellSet closure;
  };
  struct Env {
    std::map<std::string, Binding> cells;
    std::map<std::string, std::string> names;
  };

  BitsetEvaluator(const QueryEngine& engine, const EvalOptions& options)
      : engine_(engine),
        budget_(options.max_region_candidates),
        budget_limit_(options.max_region_candidates),
        max_steps_(options.max_enumeration_steps),
        stop_(options.deadline, options.cancel),
        stop_armed_(stop_.armed()) {}

  // Work tallies, flushed to EvalOptions::metrics by the caller (plain
  // locals here so the hot path never touches shared state).
  uint64_t atoms() const { return atoms_; }
  uint64_t bindings() const { return bindings_; }

  Result<bool> Eval(const FormulaPtr& formula, Env* env) {
    switch (formula->kind) {
      case Formula::Kind::kTrue: return true;
      case Formula::Kind::kFalse: return false;
      case Formula::Kind::kAtom: return EvalAtom(*formula, env);
      case Formula::Kind::kNameEq: {
        TOPODB_ASSIGN_OR_RETURN(std::string a, NameOf(formula->lhs, env));
        TOPODB_ASSIGN_OR_RETURN(std::string b, NameOf(formula->rhs, env));
        return a == b;
      }
      case Formula::Kind::kNot: {
        TOPODB_ASSIGN_OR_RETURN(bool v, Eval(formula->left, env));
        return !v;
      }
      case Formula::Kind::kAnd: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return false;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kOr: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kImplies: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        if (!a) return true;
        return Eval(formula->right, env);
      }
      case Formula::Kind::kIff: {
        TOPODB_ASSIGN_OR_RETURN(bool a, Eval(formula->left, env));
        TOPODB_ASSIGN_OR_RETURN(bool b, Eval(formula->right, env));
        return a == b;
      }
      case Formula::Kind::kExists:
      case Formula::Kind::kForall:
        return EvalQuantifier(*formula, env);
    }
    TOPODB_UNREACHABLE();
  }

 private:
  // A term's value and closure, borrowed from the environment or from the
  // engine's precomputed per-region sets.
  struct ValueRef {
    const CellSet* value;
    const CellSet* closure;
  };

  Result<std::string> NameOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kNameConstant) return term.text;
    auto it = env->names.find(term.text);
    if (it == env->names.end()) {
      return Status::InvalidArgument("'" + term.text +
                                     "' is not a name in this context");
    }
    return it->second;
  }

  Result<ValueRef> RegionRef(const std::string& name) const {
    auto it = engine_.region_bits_.find(name);
    if (it == engine_.region_bits_.end()) {
      return Status::NotFound("no region named " + name);
    }
    return ValueRef{&it->second,
                    &engine_.region_closure_bits_.find(name)->second};
  }

  Result<ValueRef> ValueOf(const Term& term, Env* env) {
    if (term.kind == Term::Kind::kVariable) {
      auto cell_it = env->cells.find(term.text);
      if (cell_it != env->cells.end()) {
        return ValueRef{&cell_it->second.value, &cell_it->second.closure};
      }
      auto name_it = env->names.find(term.text);
      if (name_it != env->names.end()) return RegionRef(name_it->second);
      return Status::InvalidArgument("unbound variable " + term.text);
    }
    return RegionRef(term.text);
  }

  Result<bool> EvalAtom(const Formula& atom, Env* env) {
    ++atoms_;
    TOPODB_ASSIGN_OR_RETURN(ValueRef s, ValueOf(atom.lhs, env));
    TOPODB_ASSIGN_OR_RETURN(ValueRef t, ValueOf(atom.rhs, env));
    auto boundary = [](const ValueRef& r) {
      CellSet b = *r.closure;
      b.AndNot(*r.value);
      return b;
    };
    switch (atom.predicate) {
      case Predicate::kConnect: return s.closure->Intersects(*t.closure);
      case Predicate::kDisjoint: return !s.closure->Intersects(*t.closure);
      case Predicate::kIntersects: return s.value->Intersects(*t.value);
      case Predicate::kSubset: return s.value->IsSubsetOf(*t.value);
      case Predicate::kBoundaryPart:
        return s.value->IsSubsetOf(boundary(t));
      case Predicate::kEqual: return *s.value == *t.value;
      case Predicate::kOverlap:
        return s.value->Intersects(*t.value) &&
               !s.value->IsSubsetOf(*t.value) &&
               !t.value->IsSubsetOf(*s.value);
      case Predicate::kMeet:
        return s.closure->Intersects(*t.closure) &&
               !s.value->Intersects(*t.value);
      case Predicate::kInside:
        return !(*s.value == *t.value) && s.value->IsSubsetOf(*t.value) &&
               !boundary(s).Intersects(boundary(t));
      case Predicate::kContains:
        return !(*s.value == *t.value) && t.value->IsSubsetOf(*s.value) &&
               !boundary(s).Intersects(boundary(t));
      case Predicate::kCovers:
        return !(*s.value == *t.value) && t.value->IsSubsetOf(*s.value) &&
               boundary(s).Intersects(boundary(t));
      case Predicate::kCoveredBy:
        return !(*s.value == *t.value) && s.value->IsSubsetOf(*t.value) &&
               boundary(s).Intersects(boundary(t));
    }
    TOPODB_UNREACHABLE();
  }

  Result<bool> EvalQuantifier(const Formula& formula, Env* env) {
    const bool exists = formula.kind == Formula::Kind::kExists;
    switch (formula.var_kind) {
      case Formula::VarKind::kName: {
        for (const std::string& name : engine_.complex_.region_names()) {
          if (stop_armed_ && stop_.ShouldStop()) return stop_.Check();
          ++bindings_;
          env->names[formula.var] = name;
          Result<bool> v = Eval(formula.body, env);
          env->names.erase(formula.var);
          TOPODB_ASSIGN_OR_RETURN(bool value, std::move(v));
          if (value == exists) return exists;
        }
        return !exists;
      }
      case Formula::VarKind::kCell: {
        const int total = static_cast<int>(engine_.num_cells());
        // One map slot for the whole sweep; per-binding updates reuse the
        // CellSet storage (copy assignment keeps capacity).
        Binding& slot = env->cells[formula.var];
        slot.value = CellSet(total);
        for (int c = 0; c < total; ++c) {
          if (stop_armed_ && stop_.ShouldStop()) {
            env->cells.erase(formula.var);
            return stop_.Check();
          }
          ++bindings_;
          if (c > 0) slot.value.Reset(c - 1);
          slot.value.Set(c);
          slot.closure = engine_.closure_bits_[c];
          Result<bool> v = Eval(formula.body, env);
          if (!v.ok() || *v == exists) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(bool result, std::move(v));
            if (result == exists) return exists;
          }
        }
        env->cells.erase(formula.var);
        return !exists;
      }
      case Formula::VarKind::kRegion: {
        // Iterate the engine's shared materialized range: disc values (and
        // their closures) are computed once per engine, then replayed for
        // every binding of every quantifier of every evaluation.
        Binding& slot = env->cells[formula.var];
        for (int64_t k = 0;; ++k) {
          if (stop_armed_ && stop_.ShouldStop()) {
            env->cells.erase(formula.var);
            return stop_.Check();
          }
          Result<const QueryEngine::DiscValue*> value =
              engine_.FetchDiscValue(k, max_steps_, stop_);
          if (!value.ok() || *value == nullptr || --budget_ < 0) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(const QueryEngine::DiscValue* v,
                                    std::move(value));
            if (v == nullptr) return !exists;
            return BudgetExhaustedError(budget_limit_);
          }
          ++bindings_;
          slot.value = (*value)->cells;
          slot.closure = (*value)->closure;
          Result<bool> v = Eval(formula.body, env);
          if (!v.ok() || *v == exists) {
            env->cells.erase(formula.var);
            TOPODB_ASSIGN_OR_RETURN(bool result, std::move(v));
            if (result == exists) return exists;
          }
        }
      }
      case Formula::VarKind::kRect:
        return Status::Unsupported(
            "rect quantifiers are evaluated by RectQueryEngine");
    }
    TOPODB_UNREACHABLE();
  }

  const QueryEngine& engine_;
  int64_t budget_;
  const int64_t budget_limit_;
  const int64_t max_steps_;
  const StopSignal stop_;
  // Hoisted stop_.armed(): the common un-deadlined evaluation pays one
  // constant-member test per checkpoint instead of re-deriving armedness.
  const bool stop_armed_;
  uint64_t atoms_ = 0;
  uint64_t bindings_ = 0;
};

// --- Parallel fan-out of the outermost quantifier ---

Result<bool> QueryEngine::EvaluateParallel(const FormulaPtr& query,
                                           const EvalOptions& options) const {
  const Formula& formula = *query;
  const bool exists = formula.kind == Formula::Kind::kExists;

  // Materialize the binding list. For region quantifiers at most
  // max_region_candidates disc values are relevant: a sequential sweep
  // consuming more would exhaust the budget anyway.
  const StopSignal stop(options.deadline, options.cancel);
  std::vector<const DiscValue*> discs;
  Status deferred;  // Enumeration error, reported only if no witness wins.
  bool range_over_budget = false;
  int64_t num_bindings = 0;
  switch (formula.var_kind) {
    case Formula::VarKind::kName:
      num_bindings = static_cast<int64_t>(complex_.region_names().size());
      break;
    case Formula::VarKind::kCell:
      num_bindings = static_cast<int64_t>(num_cells());
      break;
    case Formula::VarKind::kRegion: {
      for (int64_t k = 0; k <= options.max_region_candidates; ++k) {
        Result<const DiscValue*> value =
            FetchDiscValue(k, options.max_enumeration_steps, stop);
        if (!value.ok()) {
          deferred = value.status();
          break;
        }
        if (*value == nullptr) break;
        if (k == options.max_region_candidates) {
          range_over_budget = true;  // More discs than the budget allows.
          break;
        }
        discs.push_back(*value);
      }
      num_bindings = static_cast<int64_t>(discs.size());
      break;
    }
    case Formula::VarKind::kRect:
      return Status::Unsupported(
          "rect quantifiers are evaluated by RectQueryEngine");
  }

  // num_threads was validated at the Evaluate entry point, so resolution
  // cannot fail here.
  const int workers = static_cast<int>(
      *ResolveWorkerCount(options.num_threads,
                          static_cast<size_t>(std::min<int64_t>(
                              num_bindings, std::numeric_limits<int>::max()))));
  std::vector<std::optional<Result<bool>>> outcomes(
      static_cast<size_t>(num_bindings));
  std::atomic<int64_t> next{0};
  std::atomic<bool> stop_flag{false};

  Counter* atoms_counter = RegistryCounter(options.metrics, "query.atoms");
  Counter* bindings_counter =
      RegistryCounter(options.metrics, "query.bindings");

  auto eval_binding = [&](int64_t i) -> Result<bool> {
    BitsetEvaluator evaluator(*this, options);
    BitsetEvaluator::Env env;
    switch (formula.var_kind) {
      case Formula::VarKind::kName:
        env.names[formula.var] = complex_.region_names()[i];
        break;
      case Formula::VarKind::kCell: {
        BitsetEvaluator::Binding binding;
        binding.value = CellSet(static_cast<int>(num_cells()));
        binding.value.Set(static_cast<int>(i));
        binding.closure = closure_bits_[i];
        env.cells[formula.var] = std::move(binding);
        break;
      }
      case Formula::VarKind::kRegion:
        env.cells[formula.var] =
            BitsetEvaluator::Binding{discs[i]->cells, discs[i]->closure};
        break;
      case Formula::VarKind::kRect: break;  // Unreachable.
    }
    Result<bool> v = evaluator.Eval(formula.body, &env);
    CounterAdd(atoms_counter, evaluator.atoms());
    CounterAdd(bindings_counter, evaluator.bindings());
    return v;
  };

  auto worker = [&]() {
    while (!stop_flag.load(std::memory_order_relaxed)) {
      const int64_t i = next.fetch_add(1);
      if (i >= num_bindings) return;
      // Cancellation checkpoint per claimed outer binding: remaining
      // bindings fail fast once the deadline has passed, and the
      // deterministic scan below reports the earliest stopped binding —
      // the same point a sequential sweep would have reached.
      const Status stopped = stop.Check();
      Result<bool> v = Result<bool>(false);
      if (stopped.ok()) {
        CounterAdd(bindings_counter, 1);
        v = eval_binding(i);
      } else {
        v = stopped;
      }
      const bool decisive = !v.ok() || *v == exists;
      outcomes[i] = std::move(v);
      // First witness (or error) wins: later bindings stop being claimed,
      // already claimed ones still finish, so every binding before the
      // winner has an outcome when we scan below.
      if (decisive) stop_flag.store(true, std::memory_order_relaxed);
    }
  };
  if (workers <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (int t = 0; t < workers; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }

  // Deterministic resolution: scan bindings in order; the first error or
  // witness decides, exactly like the sequential loop.
  for (int64_t i = 0; i < num_bindings; ++i) {
    if (!outcomes[i].has_value()) continue;  // Skipped after a winner.
    Result<bool>& v = *outcomes[i];
    if (!v.ok()) return v.status();
    if (*v == exists) return exists;
  }
  if (!deferred.ok()) return deferred;
  if (range_over_budget) {
    return BudgetExhaustedError(options.max_region_candidates);
  }
  return !exists;
}

// --- Entry points ---

Result<bool> QueryEngine::EvaluateDispatch(const FormulaPtr& query,
                                           const EvalOptions& options) const {
  if (options.num_threads > 1 &&
      (query->kind == Formula::Kind::kExists ||
       query->kind == Formula::Kind::kForall) &&
      query->var_kind != Formula::VarKind::kRect) {
    return EvaluateParallel(query, options);
  }
  Counter* atoms_counter = RegistryCounter(options.metrics, "query.atoms");
  Counter* bindings_counter =
      RegistryCounter(options.metrics, "query.bindings");
  BitsetEvaluator evaluator(*this, options);
  BitsetEvaluator::Env env;
  Result<bool> result = evaluator.Eval(query, &env);
  CounterAdd(atoms_counter, evaluator.atoms());
  CounterAdd(bindings_counter, evaluator.bindings());
  return result;
}

Status QueryEngine::ValidateAtomNames(const Formula& query) const {
  switch (query.kind) {
    case Formula::Kind::kAtom:
      for (const Term* term : {&query.lhs, &query.rhs}) {
        if (term->kind == Term::Kind::kNameConstant &&
            region_bits_.find(term->text) == region_bits_.end()) {
          return Status::NotFound("no region named " + term->text);
        }
      }
      return Status::OK();
    case Formula::Kind::kNot:
      return ValidateAtomNames(*query.left);
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr:
    case Formula::Kind::kImplies:
    case Formula::Kind::kIff: {
      Status left = ValidateAtomNames(*query.left);
      if (!left.ok()) return left;
      return ValidateAtomNames(*query.right);
    }
    case Formula::Kind::kExists:
    case Formula::Kind::kForall:
      return ValidateAtomNames(*query.body);
    default:
      return Status::OK();
  }
}

SelectivityStats QueryEngine::planner_stats() const {
  SelectivityStats stats;
  stats.num_names = static_cast<int64_t>(region_bits_.size());
  stats.num_cells = static_cast<int64_t>(num_cells());
  stats.num_faces = nf_;
  stats.materialized_discs = cache_stats().materialized_discs;
  return stats;
}

Result<bool> QueryEngine::EvaluatePlanned(const FormulaPtr& query,
                                          const EvalOptions& options) const {
  if (!options.plan) return EvaluateDispatch(query, options);
  // Validate against the *input* query: canonicalization may simplify an
  // unknown-name atom away entirely (phi and false -> false), and
  // reordering may move it behind a short circuit; failing up front
  // keeps "does this query error?" independent of the plan chosen.
  TOPODB_RETURN_NOT_OK(ValidateAtomNames(*query));
  FormulaPtr planned;
  {
    ScopedTimer plan_timer(
        RegistryHistogram(options.metrics, "planner.plan_us"));
    planned = PlanQuery(query, planner_stats(), options.metrics);
  }
  CounterAdd(RegistryCounter(options.metrics, "planner.plans"));
  return EvaluateDispatch(planned, options);
}

Result<bool> QueryEngine::Evaluate(const FormulaPtr& query,
                                   const EvalOptions& options) const {
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "EvalOptions::num_threads must be >= 0 (0 or 1 = serial); got " +
        std::to_string(options.num_threads));
  }
  // Entry checkpoint: an already-expired deadline rejects the evaluation
  // before any work, whatever the query's shape. With metrics enabled the
  // rejection still counts as an evaluation (and a deadline_exceeded).
  const StopSignal stop(options.deadline, options.cancel);
  if (options.metrics == nullptr) {
    TOPODB_RETURN_NOT_OK(stop.Check());
    return EvaluatePlanned(query, options);
  }

  Result<bool> result = [&]() -> Result<bool> {
    ScopedTimer latency(options.metrics->histogram("query.eval_us"));
    Status entry = stop.Check();
    if (!entry.ok()) return entry;
    return EvaluatePlanned(query, options);
  }();
  options.metrics->counter("query.evaluations")->Add(1);
  if (!result.ok() &&
      result.status().code() == StatusCode::kDeadlineExceeded) {
    options.metrics->counter("query.deadline_exceeded")->Add(1);
  }
  // Engine-cumulative shared-cache state, exported as gauges (Set, not
  // Add: many evaluations share these caches).
  const CacheStats stats = cache_stats();
  options.metrics->gauge("query.disc_memo_hits")
      ->Set(static_cast<int64_t>(stats.disc_memo_hits));
  options.metrics->gauge("query.disc_memo_misses")
      ->Set(static_cast<int64_t>(stats.disc_memo_misses));
  options.metrics->gauge("query.range_discs")->Set(stats.materialized_discs);
  options.metrics->gauge("query.range_raw_candidates")
      ->Set(stats.raw_candidates);
  return result;
}

Result<bool> QueryEngine::Evaluate(const std::string& query,
                                   const EvalOptions& options) const {
  TOPODB_ASSIGN_OR_RETURN(FormulaPtr formula, ParseQuery(query));
  return Evaluate(formula, options);
}

}  // namespace topodb
