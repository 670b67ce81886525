#include "src/server/server.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <mutex>
#include <span>
#include <thread>
#include <utility>
#include <vector>

#include "src/base/threading.h"
#include "src/invariant/canonical.h"
#include "src/obs/deadline.h"
#include "src/pipeline/batch.h"
#include "src/pipeline/engine_cache.h"
#include "src/pipeline/semantic_cache.h"
#include "src/pipeline/text_cache.h"
#include "src/region/io.h"
#include "src/server/wire.h"
#include "src/store/catalog.h"

namespace topodb {
namespace {

// Outcome of one exact-length read. A clean close is an EOF before the
// first byte of the buffer (the peer finished between frames); a truncated
// read is an EOF once the buffer — and hence the frame — is partially
// consumed, and carries how many of the expected bytes arrived so the
// caller can report or count it distinctly from a recv() error.
struct ReadOutcome {
  enum Kind { kOk, kCleanClose, kTruncated, kError } kind = kOk;
  size_t bytes_read = 0;
};

// Reads exactly n bytes into buf, or reports why it could not.
ReadOutcome ReadFull(int fd, char* buf, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t r = recv(fd, buf + off, n - off, 0);
    if (r == 0) {
      return {off == 0 ? ReadOutcome::kCleanClose : ReadOutcome::kTruncated,
              off};
    }
    if (r < 0) {
      if (errno == EINTR) continue;
      return {ReadOutcome::kError, off};
    }
    off += static_cast<size_t>(r);
  }
  return {ReadOutcome::kOk, off};
}

}  // namespace

struct TopoDbServer::Impl {
  explicit Impl(ServerOptions opts)
      : options(std::move(opts)),
        registry(options.metrics != nullptr ? options.metrics
                                            : &owned_metrics),
        engine_cache(registry),
        sem_cache(SemanticCacheOptions{options.semantic_cache_entries,
                                       options.semantic_cache_bytes,
                                       registry}),
        text_cache(TextCacheOptions{options.text_cache_entries,
                                    options.text_cache_bytes, registry}) {}

  // One accepted connection. The reader thread lives exactly as long as
  // the socket delivers frames; workers share the socket for writes, so
  // every response (including reader-written shed responses) goes out
  // under write_mu.
  struct Session {
    int fd = -1;
    std::mutex write_mu;
    // Reader liveness and socket writability are distinct: during drain
    // the reader is woken with SHUT_RD and exits (alive=false) while
    // cancelled workers must still deliver their responses over the
    // write half. Only an actual send failure (or an unrecoverable
    // protocol error that half-closes both directions) clears writable.
    std::atomic<bool> alive{true};
    std::atomic<bool> writable{true};
    std::thread reader;
  };

  // An admitted request. The deadline is materialized at admission from
  // the frame's budget field, so time spent queued counts against it.
  struct WorkItem {
    std::shared_ptr<Session> session;
    uint16_t opcode = 0;
    uint64_t request_id = 0;
    Deadline deadline;
    std::string payload;
    std::chrono::steady_clock::time_point admitted_at;
  };

  ServerOptions options;
  MetricsRegistry owned_metrics;
  MetricsRegistry* registry;
  // Built QueryEngines for catalog-backed EVAL_QUERY requests, keyed by
  // (entry id, store format version): the arrangement is built once per
  // catalog entry, not once per request.
  EngineCache engine_cache;
  // Verdicts for catalog-backed EVAL_QUERY requests, keyed by (entry id,
  // format version, options fingerprint, canonical query): an equivalent
  // query against unchanged bytes is answered without evaluating. Shares
  // the EngineCache identity scheme, so re-ingest invalidates both.
  SemanticCache sem_cache;
  // Canonical invariant responses keyed by raw instance text: a text hit
  // skips parse + build entirely. This bounded cache is the only
  // canonical memo on the serving path: catalog refs carry precomputed
  // canonicals, and a text miss runs the pipeline uncached, so memory
  // does not grow with the number of distinct items served.
  // Admission-capped; see src/pipeline/text_cache.h for why that beats
  // LRU here.
  TextInvariantCache text_cache;

  int listen_fd = -1;
  uint16_t bound_port = 0;
  std::thread acceptor;
  std::vector<std::thread> workers;

  std::mutex sessions_mu;
  std::vector<std::shared_ptr<Session>> sessions;

  std::mutex queue_mu;
  std::condition_variable queue_cv;  // Workers: work available / stopping.
  std::condition_variable drain_cv;  // Shutdown: queue empty + idle.
  std::deque<WorkItem> queue;
  size_t in_flight = 0;

  std::atomic<bool> started{false};
  std::atomic<bool> running{false};
  std::atomic<bool> accepting{false};
  std::atomic<bool> draining{false};
  std::atomic<bool> stopping{false};
  CancelToken drain_cancel;

  // Metric handles, resolved once in Start (the registry always exists,
  // so these are never null).
  Counter* c_connections = nullptr;
  Counter* c_requests = nullptr;
  Counter* c_shed = nullptr;
  Counter* c_rejected_draining = nullptr;
  Counter* c_responses = nullptr;
  Counter* c_protocol_errors = nullptr;
  Counter* c_truncated_frames = nullptr;
  Counter* c_write_errors = nullptr;
  Counter* c_bytes_read = nullptr;
  Counter* c_bytes_written = nullptr;
  Gauge* g_queue_depth = nullptr;
  Gauge* g_in_flight = nullptr;
  Histogram* h_queue_wait_us = nullptr;
  Histogram* h_execute_us = nullptr;
  Histogram* h_write_us = nullptr;
  Histogram* h_request_us = nullptr;

  ~Impl() { (void)ShutdownImpl(); }

  Status StartImpl() {
    if (started.exchange(true)) {
      return Status::InvalidArgument("server already started");
    }
    if (options.max_queue_depth == 0) {
      return Status::InvalidArgument("max_queue_depth must be >= 1");
    }
    // The pool never exceeds the admission bound: a worker beyond it
    // could only ever idle.
    TOPODB_ASSIGN_OR_RETURN(
        size_t worker_count,
        ResolveWorkerCount(options.num_workers, options.max_queue_depth));

    listen_fd = socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd < 0) {
      return Status::Internal(std::string("socket: ") + std::strerror(errno));
    }
    const int one = 1;
    setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options.port);
    if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
        0) {
      const Status st =
          Status::Internal(std::string("bind: ") + std::strerror(errno));
      close(listen_fd);
      listen_fd = -1;
      return st;
    }
    if (listen(listen_fd, 64) < 0) {
      const Status st =
          Status::Internal(std::string("listen: ") + std::strerror(errno));
      close(listen_fd);
      listen_fd = -1;
      return st;
    }
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (getsockname(listen_fd, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) < 0) {
      const Status st =
          Status::Internal(std::string("getsockname: ") +
                           std::strerror(errno));
      close(listen_fd);
      listen_fd = -1;
      return st;
    }
    bound_port = ntohs(bound.sin_port);

    c_connections = registry->counter("server.connections");
    c_requests = registry->counter("server.requests");
    c_shed = registry->counter("server.shed");
    c_rejected_draining = registry->counter("server.rejected_draining");
    c_responses = registry->counter("server.responses");
    c_protocol_errors = registry->counter("server.protocol_errors");
    c_truncated_frames = registry->counter("server.truncated_frames");
    c_write_errors = registry->counter("server.write_errors");
    c_bytes_read = registry->counter("server.bytes_read");
    c_bytes_written = registry->counter("server.bytes_written");
    g_queue_depth = registry->gauge("server.queue_depth");
    g_in_flight = registry->gauge("server.in_flight");
    h_queue_wait_us = registry->histogram("server.queue_wait_us");
    h_execute_us = registry->histogram("server.execute_us");
    h_write_us = registry->histogram("server.write_us");
    h_request_us = registry->histogram("server.request_us");

    accepting.store(true);
    running.store(true);
    workers.reserve(worker_count);
    for (size_t i = 0; i < worker_count; ++i) {
      workers.emplace_back([this] { WorkerLoop(); });
    }
    acceptor = std::thread([this] { AcceptLoop(); });
    return Status::OK();
  }

  Status ShutdownImpl() {
    if (!running.exchange(false)) return Status::OK();

    // 1. Stop accepting: closing the listen socket wakes accept().
    accepting.store(false);
    draining.store(true);
    shutdown(listen_fd, SHUT_RDWR);
    acceptor.join();
    close(listen_fd);
    listen_fd = -1;

    // 2. Drain admitted work up to the drain deadline, then cancel
    // stragglers: every in-flight execution polls the shared token at its
    // next checkpoint and fails fast with DeadlineExceeded — but still
    // writes its response, so nothing admitted goes unanswered. Readers
    // stay live through this window: new requests are refused with
    // Unavailable, and PING is answered inline with the draining state,
    // so a health checker sees "draining" for the whole drain rather than
    // a connection that just went dark.
    {
      std::unique_lock<std::mutex> lock(queue_mu);
      const bool drained = drain_cv.wait_for(
          lock, options.drain_timeout,
          [this] { return queue.empty() && in_flight == 0; });
      if (!drained) {
        drain_cancel.Cancel();
        drain_cv.wait(lock,
                      [this] { return queue.empty() && in_flight == 0; });
      }
    }

    // 3. Stop the readers: half-closing the read side wakes any reader
    // blocked in recv with EOF so it can exit and be joined below.
    {
      std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& session : sessions) shutdown(session->fd, SHUT_RD);
    }

    // 4. Retire the worker pool and the per-session readers, then the
    // sockets themselves.
    stopping.store(true);
    queue_cv.notify_all();
    for (auto& worker : workers) worker.join();
    workers.clear();
    {
      std::lock_guard<std::mutex> lock(sessions_mu);
      for (const auto& session : sessions) {
        session->reader.join();
        session->alive.store(false);
        close(session->fd);
      }
      sessions.clear();
    }
    return Status::OK();
  }

  void AcceptLoop() {
    while (accepting.load()) {
      const int fd = accept(listen_fd, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EINTR) continue;
        break;  // Listen socket shut down (or a fatal accept error).
      }
      if (!accepting.load()) {
        close(fd);
        break;
      }
      c_connections->Add();
      auto session = std::make_shared<Session>();
      session->fd = fd;
      {
        std::lock_guard<std::mutex> lock(sessions_mu);
        sessions.push_back(session);
      }
      session->reader = std::thread([this, session] { ReaderLoop(session); });
    }
  }

  void ReaderLoop(const std::shared_ptr<Session>& session) {
    // Set when the stream cannot be resynced (bad magic, truncation): the
    // session socket is then half-closed so the peer sees EOF instead of
    // waiting on a connection that will never speak again. The fd itself
    // is only close()d at shutdown — closing here would race fd reuse
    // against workers still writing responses for this session.
    bool unrecoverable = false;
    for (;;) {
      char header_bytes[kWireHeaderBytes];
      const ReadOutcome got =
          ReadFull(session->fd, header_bytes, kWireHeaderBytes);
      if (got.kind == ReadOutcome::kCleanClose) break;
      if (got.kind != ReadOutcome::kOk) {
        // Truncated header (EOF after got.bytes_read of the header) or a
        // recv failure: either way the stream cannot be resynced. Count
        // truncation distinctly — it means the peer died mid-write, not
        // that it spoke the wrong protocol.
        if (got.kind == ReadOutcome::kTruncated) c_truncated_frames->Add();
        c_protocol_errors->Add();
        unrecoverable = true;
        break;
      }
      const Result<FrameHeader> header =
          DecodeFrameHeader(std::string_view(header_bytes, kWireHeaderBytes));
      if (!header.ok()) {
        // Bad magic / version / oversized length: report once (the peer's
        // request id is untrustworthy, so echo 0) and close — nothing
        // after a malformed header can be framed reliably.
        c_protocol_errors->Add();
        WriteResponse(*session, 0, 0, header.status(), {});
        unrecoverable = true;
        break;
      }
      std::string payload(header->payload_len, '\0');
      if (header->payload_len > 0) {
        const ReadOutcome pr =
            ReadFull(session->fd, payload.data(), payload.size());
        if (pr.kind != ReadOutcome::kOk) {
          // Any EOF here is mid-frame — the header was already consumed —
          // so a "clean" close still truncates the frame.
          if (pr.kind != ReadOutcome::kError) c_truncated_frames->Add();
          c_protocol_errors->Add();
          unrecoverable = true;
          break;
        }
      }
      c_bytes_read->Add(kWireHeaderBytes + header->payload_len);
      if ((header->opcode & kWireResponseBit) != 0 ||
          !IsKnownOpcode(header->opcode)) {
        // Recoverable: framing is intact, only the opcode is unknown.
        WriteResponse(*session, header->opcode, header->request_id,
                      Status::Unsupported("unknown opcode " +
                                          std::to_string(header->opcode)),
                      {});
        continue;
      }
      if (draining.load()) {
        // Health probes keep working during drain — that is exactly when
        // a router needs the answer. The reader responds inline (the
        // worker pool may already be retiring) with the draining state.
        if (static_cast<Opcode>(header->opcode) == Opcode::kPing) {
          std::string ping_body;
          AppendPingBody(&ping_body, SnapshotPingBody());
          WriteResponse(*session, header->opcode, header->request_id,
                        Status::OK(), ping_body);
          continue;
        }
        c_rejected_draining->Add();
        WriteResponse(*session, header->opcode, header->request_id,
                      Status::Unavailable("server draining"), {});
        continue;
      }
      WorkItem item;
      item.session = session;
      item.opcode = header->opcode;
      item.request_id = header->request_id;
      item.deadline = header->deadline_budget_ms > 0
                          ? Deadline::AfterMillis(header->deadline_budget_ms)
                          : Deadline::Infinite();
      item.payload = std::move(payload);
      item.admitted_at = std::chrono::steady_clock::now();
      bool admitted = false;
      size_t depth_at_shed = 0;
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        if (queue.size() < options.max_queue_depth) {
          queue.push_back(std::move(item));
          g_queue_depth->Set(static_cast<int64_t>(queue.size()));
          admitted = true;
        } else {
          depth_at_shed = queue.size();
        }
      }
      if (admitted) {
        c_requests->Add();
        queue_cv.notify_one();
      } else {
        // Explicit backpressure: shed now with a retryable status instead
        // of queueing indefinitely. The depth/bound context lets a shard
        // router tell an overloaded-but-alive backend (do not reroute,
        // propagate the backpressure) from a dead one.
        c_shed->Add();
        WriteResponse(*session, header->opcode, header->request_id,
                      Status::Unavailable(
                          "queue full (" + std::to_string(depth_at_shed) +
                          "/" + std::to_string(options.max_queue_depth) +
                          ")"),
                      {});
      }
    }
    session->alive.store(false);
    if (unrecoverable) {
      // Give the peer EOF so it stops waiting; the fd itself is closed
      // once at shutdown (closing here would race fd reuse against
      // workers still holding this session).
      session->writable.store(false);
      shutdown(session->fd, SHUT_RDWR);
    }
  }

  void WorkerLoop() {
    for (;;) {
      WorkItem item;
      {
        std::unique_lock<std::mutex> lock(queue_mu);
        queue_cv.wait(lock,
                      [this] { return stopping.load() || !queue.empty(); });
        if (queue.empty()) {
          if (stopping.load()) return;
          continue;
        }
        item = std::move(queue.front());
        queue.pop_front();
        g_queue_depth->Set(static_cast<int64_t>(queue.size()));
        ++in_flight;
        g_in_flight->Set(static_cast<int64_t>(in_flight));
      }
      h_queue_wait_us->Record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - item.admitted_at)
              .count());
      std::string body;
      Status status;
      {
        ScopedTimer timer(h_execute_us);
        status = HandleRequest(item, &body);
      }
      WriteResponse(*item.session, item.opcode, item.request_id, status,
                    body);
      h_request_us->Record(
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - item.admitted_at)
              .count());
      {
        std::lock_guard<std::mutex> lock(queue_mu);
        --in_flight;
        g_in_flight->Set(static_cast<int64_t>(in_flight));
        if (queue.empty() && in_flight == 0) drain_cv.notify_all();
      }
    }
  }

  void WriteResponse(Session& session, uint16_t opcode, uint64_t request_id,
                     const Status& status, std::string_view body) {
    FrameHeader header;
    header.opcode = static_cast<uint16_t>(opcode | kWireResponseBit);
    header.request_id = request_id;
    const std::string frame =
        EncodeFrame(header, EncodeResponsePayload(status, body));
    ScopedTimer timer(h_write_us);
    std::lock_guard<std::mutex> lock(session.write_mu);
    if (!session.writable.load()) return;
    size_t off = 0;
    while (off < frame.size()) {
      const ssize_t n = send(session.fd, frame.data() + off,
                             frame.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        // Peer gone: remember it so later responses skip the socket.
        session.writable.store(false);
        c_write_errors->Add();
        return;
      }
      off += static_cast<size_t>(n);
    }
    c_bytes_written->Add(frame.size());
    c_responses->Add();
  }

  // The PING response body: drain state plus a point-in-time admission
  // queue snapshot.
  PingBody SnapshotPingBody() {
    PingBody ping;
    ping.state = draining.load() ? kPingStateDraining : kPingStateServing;
    {
      std::lock_guard<std::mutex> lock(queue_mu);
      ping.queue_depth = static_cast<uint32_t>(queue.size());
    }
    ping.queue_bound = static_cast<uint32_t>(options.max_queue_depth);
    return ping;
  }

  BatchOptions InvariantBatchOptions(const WorkItem& item) {
    BatchOptions batch;
    // Cross-request parallelism is the worker pool's job; keep each
    // request single-threaded inside the pipeline.
    batch.num_threads = 1;
    batch.deadline = item.deadline;
    batch.cancel = &drain_cancel;
    batch.metrics = registry;
    return batch;
  }

  Result<std::shared_ptr<const CatalogEntry>> FindCatalogEntry(
      const std::string& name) {
    // No catalog means no named instances: the same unified NotFound an
    // absent name gets on a configured catalog, so clients see one error
    // shape for "that name does not resolve" across every opcode.
    if (options.catalog == nullptr) return UnknownInstanceError(name);
    return options.catalog->Find(name);
  }

  // Resolves every ref to its canonical invariant string, positionally
  // aligned and never aborting (per-item failures stay per-item, the
  // batch contract). Catalog names are served from the precomputed
  // section of the mapped store file; text refs run through the shared
  // pipeline in one batch. Both paths produce the canonical form under
  // default options, so a catalog hit is byte-identical to what the text
  // path would have computed.
  std::vector<Result<std::string>> ResolveCanonicals(
      const std::vector<InstanceRef>& refs, const WorkItem& item) {
    std::vector<Result<std::string>> out(
        refs.size(), Result<std::string>(Status::Internal("unresolved")));
    std::vector<SpatialInstance> parsed;
    std::vector<size_t> parsed_index;
    for (size_t i = 0; i < refs.size(); ++i) {
      if (refs[i].kind == InstanceRef::Kind::kCatalogName) {
        Result<std::shared_ptr<const CatalogEntry>> entry =
            FindCatalogEntry(refs[i].value);
        if (entry.ok()) {
          out[i] = std::string((*entry)->view().canonical());
        } else {
          out[i] = entry.status();
        }
      } else {
        // Text fast path: a repeated text serves its canonical straight
        // from the text cache, skipping parse + build (and charging
        // nothing against the item's budget).
        if (std::optional<std::string> cached =
                text_cache.Lookup(refs[i].value)) {
          out[i] = *std::move(cached);
          continue;
        }
        Result<SpatialInstance> instance = ParseInstanceText(refs[i].value);
        if (instance.ok()) {
          parsed.push_back(std::move(instance).value());
          parsed_index.push_back(i);
        } else {
          out[i] = instance.status();
        }
      }
    }
    auto results = BatchComputeInvariants(parsed, InvariantBatchOptions(item));
    for (size_t j = 0; j < results.size(); ++j) {
      if (results[j].ok()) {
        out[parsed_index[j]] = results[j]->canonical();
        // Only successes are cached: a deadline-exceeded or otherwise
        // failed item must be retryable, never pinned as an error.
        text_cache.Insert(refs[parsed_index[j]].value,
                          results[j]->canonical());
      } else {
        out[parsed_index[j]] = results[j].status();
      }
    }
    return out;
  }

  Status HandleRequest(const WorkItem& item, std::string* body) {
    // A budget spent in the queue (or a drain cancellation) fails here,
    // before any parsing or geometry work starts.
    const StopSignal stop(item.deadline, &drain_cancel);
    TOPODB_RETURN_NOT_OK(stop.Check());
    WireReader reader(item.payload);
    switch (static_cast<Opcode>(item.opcode)) {
      case Opcode::kPing: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        AppendPingBody(body, SnapshotPingBody());
        return Status::OK();
      }

      case Opcode::kMetrics: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        AppendWireString(body, registry->ExportJson());
        return Status::OK();
      }

      case Opcode::kComputeInvariant: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        auto results = ResolveCanonicals({std::move(ref)}, item);
        TOPODB_RETURN_NOT_OK(results[0].status());
        AppendWireString(body, *results[0]);
        return Status::OK();
      }

      case Opcode::kBatchInvariants: {
        TOPODB_ASSIGN_OR_RETURN(uint32_t n, reader.ReadU32());
        if (n > options.max_batch_items) {
          return Status::InvalidArgument(
              "batch of " + std::to_string(n) + " items exceeds the " +
              std::to_string(options.max_batch_items) + "-item request cap");
        }
        std::vector<InstanceRef> refs;
        refs.reserve(n);
        for (uint32_t i = 0; i < n; ++i) {
          TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
          refs.push_back(std::move(ref));
        }
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        // Parse failures and unknown names are per-item results, not
        // request failures — mirroring the batch pipeline's "never abort
        // the batch" contract.
        auto results = ResolveCanonicals(refs, item);
        AppendU32(body, n);
        for (uint32_t i = 0; i < n; ++i) {
          const Status item_status = results[i].status();
          AppendU32(body, WireStatusFromCode(item_status.code()));
          AppendWireString(body, item_status.ok() ? *results[i]
                                                  : item_status.message());
        }
        return Status::OK();
      }

      case Opcode::kEvalQuery: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref, reader.ReadInstanceRef());
        TOPODB_ASSIGN_OR_RETURN(std::string query, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        EvalOptions eval;
        eval.deadline = item.deadline;
        eval.cancel = &drain_cancel;
        eval.metrics = registry;
        eval.plan = options.plan_queries;
        if (ref.kind == InstanceRef::Kind::kCatalogName) {
          TOPODB_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                                  FindCatalogEntry(ref.value));
          TOPODB_RETURN_NOT_OK(stop.Check());
          TOPODB_ASSIGN_OR_RETURN(
              std::shared_ptr<const QueryEngine> engine,
              engine_cache.GetOrBuild(entry->entry_id(),
                                      entry->view().format_version(),
                                      entry->view().instance_text()));
          // Catalog refs have a durable identity (the entry id is the
          // payload checksum), so their verdicts are cacheable; a
          // re-ingest changes the id and routes around stale entries.
          if (options.semantic_cache) {
            eval.semantic_cache = &sem_cache;
            eval.cache_entry_id = entry->entry_id();
            eval.cache_format_version = entry->view().format_version();
          }
          TOPODB_ASSIGN_OR_RETURN(bool verdict,
                                  EvaluateQueryCached(*engine, query, eval));
          AppendU8(body, verdict ? 1 : 0);
          return Status::OK();
        }
        TOPODB_ASSIGN_OR_RETURN(SpatialInstance instance,
                                ParseInstanceText(ref.value));
        TOPODB_RETURN_NOT_OK(stop.Check());
        TOPODB_ASSIGN_OR_RETURN(QueryEngine engine,
                                QueryEngine::Build(instance));
        TOPODB_ASSIGN_OR_RETURN(bool verdict, engine.Evaluate(query, eval));
        AppendU8(body, verdict ? 1 : 0);
        return Status::OK();
      }

      case Opcode::kIsoCheck: {
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_a, reader.ReadInstanceRef());
        TOPODB_ASSIGN_OR_RETURN(InstanceRef ref_b, reader.ReadInstanceRef());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        // Theorem 3.4 equivalence is canonical-string equality, so a
        // catalog ref's precomputed canonical and a text ref's freshly
        // computed one compare on equal footing.
        auto results =
            ResolveCanonicals({std::move(ref_a), std::move(ref_b)}, item);
        TOPODB_RETURN_NOT_OK(results[0].status());
        TOPODB_RETURN_NOT_OK(results[1].status());
        AppendU8(body, *results[0] == *results[1] ? 1 : 0);
        return Status::OK();
      }

      case Opcode::kLoad: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_ASSIGN_OR_RETURN(std::string text, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        if (options.catalog == nullptr) {
          return Status::Unsupported(
              "no catalog configured (start the server with --catalog)");
        }
        TOPODB_ASSIGN_OR_RETURN(
            std::shared_ptr<const CatalogEntry> entry,
            options.catalog->Ingest(name, text, stop));
        AppendU64(body, entry->entry_id());
        AppendU64(body, entry->file_bytes());
        return Status::OK();
      }

      case Opcode::kList: {
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        std::vector<CatalogListing> listings;
        if (options.catalog != nullptr) listings = options.catalog->List();
        AppendU32(body, static_cast<uint32_t>(listings.size()));
        for (const CatalogListing& listing : listings) {
          AppendWireString(body, listing.name);
          AppendU64(body, listing.entry_id);
          AppendU64(body, listing.file_bytes);
        }
        return Status::OK();
      }

      case Opcode::kDescribe: {
        TOPODB_ASSIGN_OR_RETURN(std::string name, reader.ReadWireString());
        TOPODB_RETURN_NOT_OK(reader.ExpectEnd());
        TOPODB_ASSIGN_OR_RETURN(std::shared_ptr<const CatalogEntry> entry,
                                FindCatalogEntry(name));
        const StoreFileView& view = entry->view();
        const StoreStats stats = view.stats();
        AppendWireString(body, std::string(view.name()));
        AppendU64(body, entry->entry_id());
        AppendU64(body, entry->file_bytes());
        AppendU64(body, stats.num_regions);
        AppendU64(body, stats.num_vertices);
        AppendU64(body, stats.num_edges);
        AppendU64(body, stats.num_faces);
        AppendU8(body, view.has_s_invariant() ? 1 : 0);
        AppendU64(body, view.canonical().size());
        return Status::OK();
      }
    }
    return Status::Unsupported("unknown opcode " +
                               std::to_string(item.opcode));
  }
};

TopoDbServer::TopoDbServer(ServerOptions options)
    : impl_(std::make_unique<Impl>(std::move(options))) {}

TopoDbServer::~TopoDbServer() = default;

Status TopoDbServer::Start() { return impl_->StartImpl(); }

uint16_t TopoDbServer::port() const { return impl_->bound_port; }

Status TopoDbServer::Shutdown() { return impl_->ShutdownImpl(); }

MetricsRegistry& TopoDbServer::metrics() { return *impl_->registry; }

}  // namespace topodb
