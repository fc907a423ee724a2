#include "engine/fuzz_service.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "lang/compiler.h"

namespace mufuzz::engine {

namespace {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

}  // namespace

int DefaultWorkerCount() {
  if (const char* env = std::getenv("MUFUZZ_WORKERS")) {
    char* end = nullptr;
    errno = 0;
    long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && errno != ERANGE && parsed > 0 &&
        parsed <= INT_MAX) {
      return static_cast<int>(parsed);
    }
    static const bool warned = [env] {
      std::fprintf(stderr,
                   "[mufuzz] ignoring MUFUZZ_WORKERS=\"%s\" (not a positive "
                   "integer); using hardware concurrency\n",
                   env);
      return true;
    }();
    (void)warned;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

FuzzService::FuzzService(ServiceOptions options) : options_(options) {
  workers_ = options_.workers > 0 ? options_.workers : DefaultWorkerCount();
  options_.round_quantum = std::max(1, options_.round_quantum);
  paused_ = options_.start_paused;
  last_metrics_log_ = Clock::now();
  if (options_.backend_workers > 0 && options_.share_backend) {
    evm::AsyncExecutionHub::Options hub_options;
    hub_options.workers = options_.backend_workers;
    hub_ = std::make_unique<evm::AsyncExecutionHub>(
        hub_options, options_.reuse_sessions ? &session_pool_ : nullptr);
  }
  threads_.reserve(static_cast<size_t>(workers_));
  for (int i = 0; i < workers_; ++i) {
    threads_.emplace_back([this] { WorkerMain(); });
  }
}

FuzzService::~FuzzService() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    paused_ = false;
    // A cancel can complete its job inline (erasing its live_jobs_ node):
    // advance first.
    for (auto it = live_jobs_.begin(); it != live_jobs_.end();) {
      JobRecord* r = it->second;
      ++it;
      RequestCancelLocked(r);
    }
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
  // Members are destroyed in reverse declaration order: job records (and
  // their hub-bound adapters) before hub_, which the hub's destructor
  // requires.
}

// ------------------------------------------------------------- Validation --

Status FuzzService::ValidateSubmission(const FuzzJob& job) const {
  if (options_.wave_size < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::wave_size must be >= 0 (0 = no override)");
  }
  if (options_.backend_workers < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::backend_workers must be >= 0 (0 = in-process "
        "execution)");
  }
  if (options_.migration_top_k < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::migration_top_k must be >= 0 (0 = migrate "
        "nothing)");
  }
  if (options_.fanout < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::fanout must be >= 0 (0 = no override)");
  }
  if (options_.metrics_log_interval_ms < 0) {
    return Status::InvalidArgument(
        "ServiceOptions::metrics_log_interval_ms must be >= 0 (0 = no "
        "periodic log line)");
  }
  const fuzzer::CampaignConfig& c = job.config;
  const struct {
    const char* knob;
    int value, lo, hi;
  } ranges[] = {
      {"initial_seeds", c.initial_seeds, 0, kMaxInitialSeeds},
      {"async_workers", c.async_workers, 0, kMaxAsyncWorkers},
      {"wave_size", c.wave_size, 0, kMaxWaveSize},
      {"fanout", c.fanout, 0, kMaxFanout},
      {"base_energy", c.base_energy, 1, kMaxBaseEnergy},
      {"coverage_samples", c.coverage_samples, 0, kMaxCoverageSamples},
      {"mask_stride_divisor", c.mask_stride_divisor, 0,
       kMaxMaskStrideDivisor},
  };
  for (const auto& r : ranges) {
    if (r.value < r.lo || r.value > r.hi) {
      return Status::InvalidArgument(
          "job \"" + job.name + "\": CampaignConfig::" + r.knob + " = " +
          std::to_string(r.value) + " is outside [" + std::to_string(r.lo) +
          ", " + std::to_string(r.hi) + "]");
    }
  }
  if (job.config.max_executions < 0) {
    return Status::InvalidArgument(
        "job \"" + job.name +
        "\": CampaignConfig::max_executions must be >= 0");
  }
  // Written so that NaN fails it too.
  const double p = c.call_failure_probability;
  if (!(p >= 0.0 && p <= 1.0)) {
    return Status::InvalidArgument(
        "job \"" + job.name +
        "\": CampaignConfig::call_failure_probability = " +
        std::to_string(p) + " is outside [0, 1]");
  }
  if (job.source.size() > kMaxSourceBytes) {
    return Status::InvalidArgument(
        "job \"" + job.name + "\": source is " +
        std::to_string(job.source.size()) + " bytes, over the limit of " +
        std::to_string(kMaxSourceBytes));
  }
  return Status::OK();
}

fuzzer::CampaignConfig FuzzService::EffectiveConfig(const FuzzJob& job) const {
  fuzzer::CampaignConfig config = job.config;
  if (options_.wave_size > 0) config.wave_size = options_.wave_size;
  if (options_.fanout > 0) config.fanout = options_.fanout;
  if (options_.backend_workers > 0) {
    // Shared hub: the campaign gets an external hub-bound adapter, so its
    // own async_workers knob must not spin up a second backend. Private
    // mode: the campaign owns an adapter with the requested width.
    config.async_workers = hub_ != nullptr ? 0 : options_.backend_workers;
  }
  return config;
}

// -------------------------------------------------------------- Admission --

namespace {

/// Canonical tenant key: the empty tenant is the "default" tenant.
std::string ResolveTenant(const std::string& tenant) {
  return tenant.empty() ? "default" : tenant;
}

}  // namespace

Status FuzzService::AdmitLocked(
    const std::map<std::string, size_t>& per_tenant) {
  // Every job counts as one attempt, and a bound violation rejects (and
  // counts) all of them.
  size_t total = 0;
  for (const auto& [tenant, count] : per_tenant) {
    tenants_[tenant].submitted += count;
    total += count;
  }
  submitted_total_ += total;
  auto reject_all = [&](uint64_t* counter, Status status) {
    *counter += total;
    for (const auto& [tenant, count] : per_tenant) {
      tenants_[tenant].rejected += count;
    }
    return status;
  };
  const std::string more = " for " + std::to_string(total) + " more job(s)";
  if (options_.max_live_jobs > 0 &&
      live_jobs_.size() + total > options_.max_live_jobs) {
    return reject_all(
        &rejected_global_,
        Status::ResourceExhausted(
            "global admission queue full (" +
            std::to_string(live_jobs_.size()) + " live jobs, bound " +
            std::to_string(options_.max_live_jobs) + ")" + more +
            "; retry after jobs drain"));
  }
  for (const auto& [tenant, count] : per_tenant) {
    const size_t live = tenants_[tenant].live;
    if (options_.max_live_jobs_per_tenant > 0 &&
        live + count > options_.max_live_jobs_per_tenant) {
      return reject_all(
          &rejected_tenant_,
          Status::ResourceExhausted(
              "tenant \"" + tenant + "\" admission queue full (" +
              std::to_string(live) + " live jobs, bound " +
              std::to_string(options_.max_live_jobs_per_tenant) + ")" +
              more + "; retry after this tenant's jobs drain"));
    }
  }
  admitted_total_ += total;
  for (const auto& [tenant, count] : per_tenant) {
    tenants_[tenant].admitted += count;
    GoLiveLocked(&tenants_[tenant], count);
  }
  return Status::OK();
}

void FuzzService::GoLiveLocked(TenantRecord* tenant, size_t incoming) {
  if (tenant->live == 0) {
    // A tenant returning from idle must not bank the share it did not use:
    // it starts level with the least-served tenant that is live now.
    if (!live_tenants_.empty()) {
      uint64_t least = live_tenants_.front()->share_key;
      for (const TenantRecord* other : live_tenants_) {
        least = std::min(least, other->share_key);
      }
      tenant->share_key = least;
    }
    live_tenants_.push_back(tenant);
  }
  tenant->live += incoming;
}

FuzzService::JobRecord* FuzzService::AddRecordLocked(FuzzJob job,
                                                     std::string tenant,
                                                     GroupRecord* group) {
  const JobTicket ticket = next_ticket_++;
  auto record = std::make_unique<JobRecord>();
  JobRecord* r = record.get();
  r->ticket = ticket;
  r->job = std::move(job);
  r->config = EffectiveConfig(r->job);
  r->outcome.name = r->job.name;
  r->progress.state = JobState::kQueued;
  r->progress.fanout = std::max(1, r->config.fanout);
  r->tenant_record = &tenants_[tenant];
  r->tenant = std::move(tenant);
  r->admitted_at = Clock::now();
  r->group = group;
  if (r->job.deadline_ms > 0) ++deadline_jobs_;
  live_jobs_.emplace(ticket, r);
  jobs_.emplace(ticket, std::move(record));
  MakeReadyLocked(r);
  return r;
}

Result<JobTicket> FuzzService::Submit(FuzzJob job) {
  Status status = ValidateSubmission(job);
  if (!status.ok()) return status;
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("FuzzService is shutting down");
  std::string tenant = ResolveTenant(job.tenant);
  Status admitted = AdmitLocked({{tenant, 1}});
  if (!admitted.ok()) return admitted;
  JobRecord* r = AddRecordLocked(std::move(job), std::move(tenant), nullptr);
  if (idle_workers_ > 0) work_cv_.notify_one();
  return r->ticket;
}

Result<GroupTicket> FuzzService::SubmitIslandGroup(std::vector<FuzzJob> jobs) {
  if (jobs.empty()) {
    return Status::InvalidArgument(
        "island group must have at least one member");
  }
  if (options_.exchange_interval <= 0) {
    return Status::InvalidArgument(
        "island groups require ServiceOptions::exchange_interval > 0 "
        "(submit the jobs individually to run them standalone)");
  }
  for (const FuzzJob& job : jobs) {
    Status status = ValidateSubmission(job);
    if (!status.ok()) return status;
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (stop_) return Status::Internal("FuzzService is shutting down");

  // All-or-nothing admission.
  std::map<std::string, size_t> per_tenant;
  for (const FuzzJob& job : jobs) ++per_tenant[ResolveTenant(job.tenant)];
  Status admitted = AdmitLocked(per_tenant);
  if (!admitted.ok()) return admitted;

  auto group = std::make_unique<GroupRecord>();
  group->open_members = static_cast<int>(jobs.size());
  group->pending = static_cast<int>(jobs.size());  // every member compiles
  GroupTicket group_ticket;
  for (FuzzJob& job : jobs) {
    std::string tenant = ResolveTenant(job.tenant);
    JobRecord* r =
        AddRecordLocked(std::move(job), std::move(tenant), group.get());
    group->members.push_back(r);
    group_ticket.members.push_back(r->ticket);
  }
  groups_.push_back(std::move(group));
  work_cv_.notify_all();
  return group_ticket;
}

// ----------------------------------------------------------- Client calls --

JobProgress FuzzService::Poll(JobTicket ticket) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) return JobProgress();  // state == kUnknown
  const JobRecord* record = it->second.get();
  JobProgress progress = record->progress;
  if (record->stage == Stage::kDone) {
    progress.state = JobState::kDone;
  } else if (record->cancel_requested) {
    progress.state = JobState::kCancelling;
  } else if (record->stage == Stage::kActive ||
             record->stage == Stage::kFinalizing) {
    progress.state = JobState::kRunning;
  } else {
    progress.state = JobState::kQueued;
  }
  return progress;
}

JobOutcome FuzzService::Wait(JobTicket ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) {
    JobOutcome outcome;
    outcome.error = "unknown FuzzService ticket";
    return outcome;
  }
  JobRecord* record = it->second.get();
  done_cv_.wait(lock, [record] { return record->stage == Stage::kDone; });
  return record->outcome;
}

std::vector<JobOutcome> FuzzService::WaitAll() {
  std::vector<JobTicket> tickets;
  {
    std::lock_guard<std::mutex> lock(mu_);
    tickets.reserve(jobs_.size());
    for (const auto& [ticket, record] : jobs_) tickets.push_back(ticket);
  }
  std::vector<JobOutcome> outcomes;
  outcomes.reserve(tickets.size());
  for (JobTicket ticket : tickets) outcomes.push_back(Wait(ticket));
  return outcomes;
}

void FuzzService::Cancel(JobTicket ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = jobs_.find(ticket);
  if (it == jobs_.end()) return;
  RequestCancelLocked(it->second.get());
  if (ready_units_ > 0 && idle_workers_ > 0) work_cv_.notify_one();
}

void FuzzService::CancelGroup(const GroupTicket& group) {
  for (JobTicket ticket : group.members) Cancel(ticket);
}

void FuzzService::CancelAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = live_jobs_.begin(); it != live_jobs_.end();) {
    JobRecord* r = it->second;
    ++it;  // a cancel can complete its job inline
    RequestCancelLocked(r);
  }
  work_cv_.notify_all();
}

void FuzzService::Resume() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = false;
  work_cv_.notify_all();
}

ServiceStats FuzzService::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return StatsLocked();
}

ServiceStats FuzzService::StatsLocked() const {
  ServiceStats stats;
  stats.submitted = submitted_total_;
  stats.admitted = admitted_total_;
  stats.rejected_global = rejected_global_;
  stats.rejected_tenant = rejected_tenant_;
  stats.completed = completed_total_;
  stats.cancelled = cancelled_total_;
  stats.deadline_hits = deadline_hits_;
  stats.rounds = slices_;
  stats.live_jobs = live_jobs_.size();
  stats.executions = TotalExecutionsLocked();
  if (rate_samples_.size() >= 2) {
    const auto& first = rate_samples_.front();
    const auto& last = rate_samples_.back();
    double seconds =
        std::chrono::duration<double>(last.first - first.first).count();
    if (seconds > 0 && last.second >= first.second) {
      stats.executions_per_sec =
          static_cast<double>(last.second - first.second) / seconds;
    }
  }
  if (hub_ != nullptr) {
    stats.hub_workers = hub_->worker_count();
    stats.hub_queue_depth = hub_->queue_depth();
    stats.hub_queue_capacity = hub_->queue_capacity();
  }
  stats.sessions_created = session_pool_.created();

  // Live depth / executions per tenant come from the live records; the
  // monotone counters come from the tenant table.
  std::map<std::string, std::pair<size_t, uint64_t>> live_now;  // queued, exec
  for (const auto& [ticket, record] : live_jobs_) {
    auto& entry = live_now[record->tenant];
    if (record->stage == Stage::kAdmitted || record->stage == Stage::kCompiled ||
        record->stage == Stage::kConstruct) {
      ++entry.first;
      ++stats.queued_jobs;
    }
    entry.second += record->progress.executions;
  }
  stats.tenants.reserve(tenants_.size());
  for (const auto& [name, record] : tenants_) {
    TenantStats tenant;
    tenant.tenant = name;
    tenant.submitted = record.submitted;
    tenant.admitted = record.admitted;
    tenant.rejected = record.rejected;
    tenant.completed = record.completed;
    tenant.cancelled = record.cancelled;
    tenant.deadline_hits = record.deadline_hits;
    tenant.stepped_quanta = record.stepped_quanta;
    tenant.live_jobs = record.live;
    auto it = live_now.find(name);
    tenant.queued_jobs = it != live_now.end() ? it->second.first : 0;
    tenant.executions = record.completed_executions +
                        (it != live_now.end() ? it->second.second : 0);
    stats.tenants.push_back(std::move(tenant));
  }
  return stats;
}

// ---------------------------------------------------------------- Workers --

void FuzzService::WorkerMain() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    JobRecord* r = nullptr;
    while ((r = PickLocked()) == nullptr) {
      if (stop_ && live_jobs_.empty()) return;
      ++idle_workers_;
      work_cv_.wait(lock);
      --idle_workers_;
    }
    if (ready_units_ > 0 && idle_workers_ > 0) work_cv_.notify_one();
    lock.unlock();
    RunUnit(r);
    lock.lock();
    SettleLocked(r);
  }
}

FuzzService::JobRecord* FuzzService::PickLocked() {
  if (paused_) return nullptr;
  if (deadline_jobs_ > 0) {
    const auto now = Clock::now();
    if (now - last_deadline_sweep_ >= std::chrono::milliseconds(1)) {
      last_deadline_sweep_ = now;
      SweepDeadlinesLocked(now);
    }
  }
  JobRecord* r = nullptr;
  if (!finals_.empty()) {
    r = finals_.front();
    finals_.pop_front();
  } else {
    TenantRecord* best = nullptr;
    for (TenantRecord* t : live_tenants_) {
      if (t->ready.empty()) continue;
      if (best == nullptr || t->share_key < best->share_key ||
          (t->share_key == best->share_key &&
           ReadyOrder()(*t->ready.begin(), *best->ready.begin()))) {
        best = t;
      }
    }
    if (best == nullptr) return nullptr;
    r = *best->ready.begin();
    best->ready.erase(best->ready.begin());
    if (r->stage == Stage::kActive) {  // a step slice: charge the tenant
      const uint64_t charge = static_cast<uint64_t>(
          r->group != nullptr ? options_.exchange_interval
                              : options_.round_quantum);
      best->share_key += charge;
      best->stepped_quanta += charge;
      if (r->group != nullptr) r->group->stepped = true;
      if (r->progress.first_step_round < 0) {
        r->progress.first_step_round = static_cast<int64_t>(slices_);
      }
    }
  }
  --ready_units_;
  r->running = true;
  return r;
}

void FuzzService::RunUnit(JobRecord* r) {
  // A running job's stage changes only when its unit settles, so it names
  // the unit without the lock.
  const auto start = Clock::now();
  switch (r->stage) {
    case Stage::kAdmitted:
      ResolveArtifact(r);
      if (r->artifact != nullptr && r->group == nullptr) StartCampaign(r);
      break;
    case Stage::kConstruct:
      StartCampaign(r);
      break;
    case Stage::kActive:
      if (r->group == nullptr) {
        r->campaign->StepStream(
            static_cast<uint64_t>(options_.round_quantum));
      } else {
        r->campaign->StepRound(
            static_cast<uint64_t>(options_.exchange_interval));
      }
      break;
    case Stage::kFinalizing:
      FinalizeJob(r);
      break;
    case Stage::kCompiled:
    case Stage::kDone:
      break;
  }
  r->active_ms += MsBetween(start, Clock::now());
}

void FuzzService::SettleLocked(JobRecord* r) {
  r->running = false;
  GroupRecord* group = r->group;
  switch (r->stage) {
    case Stage::kAdmitted:
      if (group != nullptr) {
        // Island compile: survivors wait for the whole group; failures
        // finish here, and a member cancelled meanwhile drops out like a
        // compile failure.
        if (r->artifact == nullptr) {
          MarkDoneLocked(r);
        } else if (r->cancel_requested) {
          CancelBeforeStartLocked(r);
        } else {
          r->stage = Stage::kCompiled;
        }
        PhaseUnitDoneLocked(group);
      } else if (r->campaign == nullptr) {
        MarkDoneLocked(r);  // compile failed
      } else {
        r->stage = Stage::kActive;
        SnapshotProgressLocked(r);
        ContinueStandaloneLocked(r);
      }
      break;
    case Stage::kConstruct:
      r->stage = Stage::kActive;
      SnapshotProgressLocked(r);
      PhaseUnitDoneLocked(group);
      break;
    case Stage::kActive:
      ++slices_;
      if (group == nullptr) ++r->rounds;
      SnapshotProgressLocked(r);
      if (group == nullptr) {
        ContinueStandaloneLocked(r);
      } else {
        PhaseUnitDoneLocked(group);
      }
      break;
    case Stage::kFinalizing: {
      // A member finalized by a cancel while its group still runs owed
      // that unit to the group's current phase.
      const bool owed = group != nullptr && !group->finished;
      MarkDoneLocked(r);
      if (owed) PhaseUnitDoneLocked(group);
      break;
    }
    case Stage::kCompiled:
    case Stage::kDone:
      break;
  }
  SampleLocked(Clock::now());
}

void FuzzService::MakeReadyLocked(JobRecord* r) {
  r->tenant_record->ready.insert(r);
  ++ready_units_;
}

void FuzzService::QueueFinalizeLocked(JobRecord* r, bool cancelled) {
  r->finalize_cancelled = cancelled;
  r->stage = Stage::kFinalizing;
  finals_.push_back(r);
  ++ready_units_;
}

void FuzzService::ContinueStandaloneLocked(JobRecord* r) {
  const bool done = r->campaign->StreamDone();
  if (r->cancel_requested || done) {
    QueueFinalizeLocked(r, r->cancel_requested && !done);
  } else {
    MakeReadyLocked(r);
  }
}

void FuzzService::PhaseUnitDoneLocked(GroupRecord* group) {
  if (--group->pending == 0) AdvanceGroupLocked(group);
}

void FuzzService::AdvanceGroupLocked(GroupRecord* group) {
  if (!group->built) {
    // Compile phase over: survivors get island ids and construct next.
    BuildSharderLocked(group);
    for (JobRecord* m : group->members) {
      if (m->stage != Stage::kConstruct) continue;
      ++group->pending;
      MakeReadyLocked(m);
    }
    if (group->pending > 0) return;
  }
  // Construct or step phase over. Migration sees every member after the
  // same number of step rounds — the archipelago's only coupling.
  if (group->stepped) {
    group->sharder->RunMigrationRound(options_.migration_top_k);
    ++group->migration_rounds;
    group->stepped = false;
    for (JobRecord* m : group->members) {
      if (m->stage == Stage::kActive) {
        m->progress.round_index = group->migration_rounds;
      }
    }
  }
  bool all_done = true;
  for (JobRecord* m : group->members) {
    if (m->stage == Stage::kActive && !m->campaign->Done()) {
      all_done = false;
      break;
    }
  }
  if (all_done) {
    // A member that exhausted its budget kept exporting and importing in
    // migration rounds; every one finalizes together now.
    group->finished = true;
    for (JobRecord* m : group->members) {
      if (m->stage == Stage::kActive) QueueFinalizeLocked(m, false);
    }
    if (group->open_members == 0) {
      for (JobRecord* m : group->members) m->queue = nullptr;
      group->sharder.reset();
    }
    return;
  }
  // Next step phase: every member with budget left steps once; a
  // cancelled one finalizes instead, its queue staying in the
  // archipelago.
  for (JobRecord* m : group->members) {
    if (m->stage != Stage::kActive || m->campaign->Done()) continue;
    ++group->pending;
    if (m->cancel_requested) {
      QueueFinalizeLocked(m, true);
    } else {
      MakeReadyLocked(m);
    }
  }
}

void FuzzService::RequestCancelLocked(JobRecord* r) {
  if (r->stage == Stage::kDone || r->cancel_requested) return;
  r->cancel_requested = true;
  if (r->running) return;  // applied when its unit settles
  switch (r->stage) {
    case Stage::kAdmitted:
    case Stage::kConstruct:
      r->tenant_record->ready.erase(r);
      --ready_units_;
      CancelBeforeStartLocked(r);
      if (r->group != nullptr) PhaseUnitDoneLocked(r->group);
      break;
    case Stage::kCompiled:
      // No campaign ever ran; the member drops out of the group exactly
      // like a compile failure.
      CancelBeforeStartLocked(r);
      break;
    case Stage::kActive:
      // Ready means a slice (or an island step the current phase owes) is
      // pending: finalize instead. An island member waiting for its group
      // is picked up when the next phase opens.
      if (r->tenant_record->ready.erase(r) > 0) {
        --ready_units_;
        QueueFinalizeLocked(r, true);
      }
      break;
    case Stage::kFinalizing:
    case Stage::kDone:
      break;
  }
}

void FuzzService::SweepDeadlinesLocked(Clock::time_point now) {
  for (auto it = live_jobs_.begin(); it != live_jobs_.end();) {
    JobRecord* r = it->second;
    ++it;  // a cancel can complete its job inline
    if (r->deadline_hit || r->cancel_requested || r->job.deadline_ms == 0 ||
        r->stage == Stage::kFinalizing ||
        now - r->admitted_at < std::chrono::milliseconds(r->job.deadline_ms)) {
      continue;
    }
    r->deadline_hit = true;
    --deadline_jobs_;
    r->progress.deadline_expired = true;
    ++deadline_hits_;
    ++r->tenant_record->deadline_hits;
    RequestCancelLocked(r);
  }
}

void FuzzService::SampleLocked(Clock::time_point now) {
  if (rate_samples_.empty() ||
      now - rate_samples_.back().first >= std::chrono::milliseconds(1)) {
    rate_samples_.emplace_back(now, TotalExecutionsLocked());
    while (rate_samples_.size() > 64) rate_samples_.pop_front();
  }

  if (options_.metrics_log_interval_ms <= 0) return;
  if (now - last_metrics_log_ <
      std::chrono::milliseconds(options_.metrics_log_interval_ms)) {
    return;
  }
  last_metrics_log_ = now;
  ServiceStats stats = StatsLocked();
  std::string tenants;
  for (const TenantStats& tenant : stats.tenants) {
    if (!tenants.empty()) tenants += ",";
    tenants += tenant.tenant + ":" + std::to_string(tenant.live_jobs);
  }
  std::fprintf(stderr,
               "[mufuzzd] execs=%llu execs/s=%.0f live=%zu queued=%zu "
               "rounds=%llu rejected=%llu/%llu deadline_hits=%llu "
               "hub_queue=%zu/%zu tenants=[%s]\n",
               static_cast<unsigned long long>(stats.executions),
               stats.executions_per_sec, stats.live_jobs, stats.queued_jobs,
               static_cast<unsigned long long>(stats.rounds),
               static_cast<unsigned long long>(stats.rejected_tenant),
               static_cast<unsigned long long>(stats.rejected_global),
               static_cast<unsigned long long>(stats.deadline_hits),
               stats.hub_queue_depth, stats.hub_queue_capacity,
               tenants.c_str());
}

void FuzzService::BuildSharderLocked(GroupRecord* group) {
  std::vector<std::unique_ptr<fuzzer::SeedScheduler>> queues;
  std::vector<JobRecord*> survivors;
  for (JobRecord* m : group->members) {
    if (m->stage != Stage::kCompiled) continue;  // compile failed / cancelled
    m->island_id = static_cast<int>(survivors.size());
    queues.push_back(std::make_unique<fuzzer::SeedScheduler>(
        m->config.strategy.distance_feedback));
    m->queue = queues.back().get();
    survivors.push_back(m);
  }
  group->sharder =
      std::make_unique<fuzzer::ShardedSeedScheduler>(std::move(queues));
  group->built = true;
  for (JobRecord* m : survivors) m->stage = Stage::kConstruct;
}

// --------------------------------------------------- Unit bodies (no lock) --

void FuzzService::ResolveArtifact(JobRecord* r) {
  if (r->job.artifact != nullptr) {
    r->artifact = r->job.artifact;
    return;
  }
  auto result = lang::CompileContract(r->job.source);
  if (result.ok()) {
    r->compiled = std::move(result).value();
    r->artifact = &*r->compiled;
  } else {
    r->outcome.error = result.status().ToString();
  }
}

void FuzzService::StartCampaign(JobRecord* r) {
  evm::ExecutionBackend* backend = nullptr;
  if (hub_ != nullptr) {
    r->adapter = std::make_unique<evm::AsyncBackendAdapter>(hub_.get());
    backend = r->adapter.get();
  } else if (r->group == nullptr && options_.backend_workers == 0 &&
             options_.reuse_sessions) {
    r->session = session_pool_.Acquire();
    backend = r->session.get();
  }
  // Otherwise the campaign owns its backend: a private AsyncBackendAdapter
  // (config.async_workers, set by EffectiveConfig) or a SessionBackend. An
  // island campaign's sessions must survive across rounds, so pooled
  // leasing would pin them anyway.
  r->campaign = std::make_unique<fuzzer::Campaign>(
      r->artifact, r->config, backend, r->queue, r->island_id);
  r->campaign->SeedCorpus();
}

void FuzzService::FinalizeJob(JobRecord* r) {
  if (r->finalize_cancelled) {
    r->campaign->MarkCancelled();
    r->campaign->DrainStream();  // no-op on the stepped (island) path
  }
  r->outcome.result = r->campaign->Finalize();
  // Drop the campaign before its externally owned island queue (and before
  // the backend it unbinds on destruction) goes away.
  r->campaign.reset();
  if (r->session != nullptr) session_pool_.Release(std::move(r->session));
  r->adapter.reset();
}

// ------------------------------------------------------------ Bookkeeping --

void FuzzService::SnapshotProgressLocked(JobRecord* r) {
  fuzzer::Campaign::Progress p = r->campaign->SnapshotProgress();
  live_executions_ += p.executions - r->progress.executions;
  r->progress.executions = p.executions;
  r->progress.transactions = p.transactions;
  r->progress.coverage = p.coverage;
  r->progress.bugs_found = p.bugs_found;
  r->progress.parents_in_flight = p.parents_in_flight;
  r->progress.inflight_executions = p.inflight_executions;
  r->progress.code_cache = p.code_cache;
  r->progress.prefix_cache = p.prefix_cache;
  r->progress.heap_allocs = p.heap_allocs;
  r->progress.wave_allocs = p.wave_allocs;
  r->progress.wave_executions = p.wave_executions;
  r->progress.round_index =
      r->group != nullptr ? r->group->migration_rounds : r->rounds;
}

void FuzzService::MarkDoneLocked(JobRecord* r) {
  r->stage = Stage::kDone;
  r->outcome.elapsed_ms = r->active_ms;
  live_jobs_.erase(r->ticket);
  live_executions_ -= r->progress.executions;
  if (r->job.deadline_ms > 0 && !r->deadline_hit) --deadline_jobs_;
  if (GroupRecord* group = r->group; group != nullptr) {
    // The last member of a finished group frees the seed queues.
    if (--group->open_members == 0 && group->finished) {
      for (JobRecord* m : group->members) m->queue = nullptr;
      group->sharder.reset();
    }
  }

  TenantRecord& tenant = *r->tenant_record;
  if (--tenant.live == 0) {
    live_tenants_.erase(
        std::find(live_tenants_.begin(), live_tenants_.end(), &tenant));
  }
  ++tenant.completed;
  ++completed_total_;
  const bool via_cancel =
      r->progress.cancelled ||
      (r->outcome.result.has_value() && r->outcome.result->cancelled);
  if (via_cancel) {
    ++tenant.cancelled;
    ++cancelled_total_;
  }
  if (r->outcome.result.has_value()) {
    tenant.completed_executions += r->outcome.result->executions;
    completed_executions_ += r->outcome.result->executions;
  }
  JobProgress& p = r->progress;
  p.state = JobState::kDone;
  // A finished job has nothing speculative left: the finalize path drained
  // the set and applied (or accounted for) every submitted child.
  p.parents_in_flight = 0;
  p.inflight_executions = 0;
  if (r->outcome.result.has_value()) {
    const fuzzer::CampaignResult& result = *r->outcome.result;
    p.executions = result.executions;
    p.transactions = result.transactions;
    p.coverage = result.branch_coverage;
    p.bugs_found = result.bugs.size();
    p.cancelled = result.cancelled;
    p.code_cache = result.code_cache;
    p.prefix_cache = result.prefix_cache;
    p.round_index =
        r->group != nullptr ? r->group->migration_rounds : r->rounds;
  }
  done_cv_.notify_all();
  if (stop_ && live_jobs_.empty()) work_cv_.notify_all();
}

void FuzzService::CancelBeforeStartLocked(JobRecord* r) {
  // No campaign ever ran, so — per the JobOutcome contract — the result
  // stays empty (it can never be mistaken for a zero-coverage row) and the
  // error says why; the progress snapshot still reports the cancellation.
  r->finalize_cancelled = true;
  r->outcome.error = r->deadline_hit
                         ? "deadline expired before the campaign started"
                         : "cancelled before the campaign started";
  r->progress.cancelled = true;
  MarkDoneLocked(r);
}

}  // namespace mufuzz::engine
