#ifndef QBISM_SERVICE_QUERY_SERVICE_H_
#define QBISM_SERVICE_QUERY_SERVICE_H_

#include <memory>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/task_pool.h"
#include "obs/trace.h"
#include "qbism/medical_server.h"
#include "qbism/spatial_extension.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/slots.h"

namespace qbism {
class IngestManager;
namespace med {
struct StudyRecord;
}  // namespace med
}  // namespace qbism

namespace qbism::service {

/// One client request: a query spec plus service-level controls. The
/// deadline is measured from arrival in Execute (it bounds the wait for
/// a slot too); 0 disables it.
struct ServiceRequest {
  qbism::QuerySpec spec;
  /// Index into the tenant table the service was built with; 0 when it
  /// was built without one.
  int tenant = 0;
  double deadline_seconds = 0.0;
  /// When set (and its tracer is the service's), the request joins this
  /// trace instead of starting a fresh one: the kQuery root span hangs
  /// under trace_parent.span_id, so a front end (the socket server) can
  /// stitch accept -> decode -> execute -> ship into one tree.
  obs::TraceContext trace_parent;
};

/// Reply for a completed request: the database answer plus
/// service-side accounting.
struct ServiceReply {
  qbism::StudyQueryResult result;
  bool cache_hit = false;
  int worker_id = -1;          // the slot (and MedicalServer) used
  double total_seconds = 0.0;  // arrival -> reply, real wall time
};

/// Sizing and cost knobs for the service.
struct ServiceOptions {
  /// Execution slots; each owns a MedicalServer over the shared
  /// extension, and a request runs on its caller's thread while it
  /// holds one. 0 is allowed (nothing is ever granted — used by
  /// admission tests).
  int num_workers = 4;
  /// Requests allowed to wait for a slot at once, across all tenants;
  /// arrivals beyond this are rejected immediately with
  /// ResourceExhausted.
  size_t queue_capacity = 64;
  /// Shared LRU result cache; 0 entries disables it.
  size_t cache_entries = 128;
  uint64_t cache_bytes = 512ull << 20;
  /// When > 0, each executed query's modeled wait time — the simulated
  /// LFM/relational I/O stall plus network shipping time that the cost
  /// models charge but never spend — is realized as a real wall-clock
  /// wait of `io_wait_scale` x that many seconds. Concurrent requests
  /// overlap these waits exactly the way the 1993 system overlapped
  /// disk and RPC, so throughput benchmarks see the slots' concurrency
  /// benefit on any host. Cache hits perform no I/O and therefore never wait. 0 = off.
  double io_wait_scale = 0.0;
  /// Transient-fault handling: a query that fails with IOError (the
  /// code injected disk faults and, on real hardware, flaky media
  /// surface as) is re-executed up to `max_retries` times per request,
  /// sleeping a capped exponential backoff between attempts
  /// (base * 2^attempt, clamped to the max). Retries never outlive the
  /// request's deadline or a cancellation, and every retry / exhausted
  /// budget is counted in ServiceMetrics (retries, giveups). 0 disables.
  int max_retries = 2;
  double retry_backoff_seconds = 0.001;
  double retry_backoff_max_seconds = 0.050;
  /// Donation threads for intra-query extraction parallelism: the
  /// service owns a TaskPool this size and installs it on the shared
  /// extension's ParallelExtractor, so a large EXTRACT_DATA borrows idle
  /// capacity while the pool's fair-share cap keeps one query from
  /// monopolizing it. -1 sizes the pool to num_workers; 0 disables
  /// (extractions run inline on the request's thread).
  int extract_helper_threads = -1;
  /// Optional tracing sink (not owned; must outlive the service). Each
  /// request becomes one trace: a kQuery root span labeled by query
  /// class, with the slot wait (kQueueWait), cache probe, the server's
  /// stage spans, retries, and realized I/O waits as children. When null or
  /// disabled every instrumentation point costs one thread-local read
  /// and a branch. metrics().stages carries the per-stage summaries.
  obs::Tracer* tracer = nullptr;
  /// Optional online-ingest manager (not owned; must outlive the
  /// service). When set, the service gates requests on study
  /// visibility, routes RunIngest through it, and invalidates the
  /// shared result cache per study at every ingest commit.
  qbism::IngestManager* ingest = nullptr;
  /// Refresh the cost-based planner's statistics (scalar + region
  /// histograms + power-law fits) after every committed ingest, so the
  /// optimizer tracks the data the moment it becomes visible. The
  /// refresh also bumps the stats version, invalidating cached plans
  /// built against the old distribution. Requires `ingest`.
  bool refresh_planner_stats_on_commit = true;
  qbism::ServerCostModel cost_model;
};

/// The concurrent query-serving front end: `num_workers` execution
/// slots, each owning its own MedicalServer, over one shared read-mostly
/// SpatialExtension/Database, behind one tenant-weighted admission point
/// and a server-wide LRU result cache. Execute runs on the caller's
/// thread: it waits for a slot, serves the request on that slot's
/// MedicalServer (database half only — no DX import or render), and
/// returns the answer.
///
///   caller threads --Execute--> [SlotAdmission: tenant caps, waiting
///        |                        bounds, deadline] --slot i-->
///        |                                  MedicalServer i
///        +---- shared ResultCache ----+            |
///                              shared SpatialExtension + DBMS
///
/// The extension/database must be fully loaded before the service
/// starts; requests treat it as read-only.
class QueryService {
 public:
  /// `tenants` configures the fair-share admission (one weighted cap
  /// and waiting quota per tenant, indexed by ServiceRequest::tenant);
  /// empty means a single tenant that may use every slot.
  QueryService(qbism::SpatialExtension* ext, ServiceOptions options,
               const std::vector<TenantShare>& tenants = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits the request, waiting for a slot if need be, and serves it on
  /// the calling thread:
  ///   ResourceExhausted  waiting line full — the tenant's
  ///                      (SlotAdmission::IsQuotaRejection) or the
  ///                      global queue_capacity bound
  ///   DeadlineExceeded   the deadline passed waiting or mid-query
  ///   Cancelled          the service is (being) shut down
  Result<ServiceReply> Execute(const ServiceRequest& request);

  /// Online ingest through the service (requires options.ingest):
  /// stores (or replaces) the study in one durable transaction while
  /// queries keep flowing, then invalidates the study's cached results.
  /// Counted in metrics().ingests / ingest_failures.
  Status RunIngest(const qbism::med::StudyRecord& record, bool replace);

  /// Stops admissions, fails every waiting request with Cancelled, and
  /// waits for the requests holding slots to finish. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  /// Service counters plus the extraction fast-path counters accrued on
  /// the shared extractor since this service started.
  MetricsSnapshot metrics() const;
  ResultCacheStats cache_stats() const { return cache_.stats(); }

  /// Front-end rejection accounting: a server sitting in front of the
  /// service (src/server) counts the requests it bounces before they
  /// reach Execute, so one MetricsSnapshot covers the whole edge.
  void NoteUnauthorized() { metrics_.AddUnauthorized(); }
  void NoteQuotaRejected() { metrics_.AddQuotaRejected(); }
  void NoteSessionExpired() { metrics_.AddSessionExpired(); }

  /// Pure probe (no LRU promotion, no stats): is this QuerySpec
  /// description cached? Fault tests assert failed queries never are.
  bool CacheContains(const std::string& key) const {
    return cache_.Contains(key);
  }
  SlotAdmission* admission() { return &admission_; }
  size_t queue_depth() const { return admission_.waiting(); }
  int num_workers() const { return admission_.num_slots(); }

 private:
  struct Call;

  /// Serves `call` on the MedicalServer of the slot it holds, including
  /// the cache probe/fill.
  Result<ServiceReply> Serve(int slot, const Call& call);
  void Complete(const Call& call, Result<ServiceReply>* reply);

  qbism::SpatialExtension* ext_;
  ServiceOptions options_;
  ResultCache cache_;
  ServiceMetrics metrics_;
  std::unique_ptr<TaskPool> extract_pool_;  // may be null (helpers off)
  qbism::ExtractorStatsSnapshot extractor_baseline_;
  SlotAdmission admission_;
  std::vector<std::unique_ptr<qbism::MedicalServer>> servers_;
  std::mutex shutdown_mu_;
  bool shut_down_ = false;  // guarded by shutdown_mu_
  uint64_t ingest_listener_token_ = 0;  // set once in the constructor
};

}  // namespace qbism::service

#endif  // QBISM_SERVICE_QUERY_SERVICE_H_
