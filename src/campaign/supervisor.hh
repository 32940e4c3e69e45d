/**
 * @file
 * Resilient campaign supervision: shard isolation, hang/crash triage,
 * bounded retry, and checkpoint/resume.
 *
 * runCampaign (campaign.hh) does not assume that a shard is a
 * well-behaved function. The supervisor makes each shard a
 * fault-contained unit, so a campaign left running unattended for hours
 * survives anything a single shard does to its host. Every policy below
 * is a CampaignConfig field:
 *
 *  - Isolation. Every attempt runs under an exception barrier that
 *    turns an uncaught throw into FailureClass::HostCrash and
 *    std::bad_alloc into ResourceExhausted. With forkIsolation (POSIX),
 *    the attempt runs in a forked child that reports its outcome over a
 *    pipe using the journal line format — a segfault or sanitizer abort
 *    kills only the child and is triaged as HostCrash with the seed
 *    preserved. On platforms without fork() the flag degrades to the
 *    in-process barrier.
 *
 *  - Reaping. A watchdog thread enforces a per-shard wall-clock
 *    deadline (shardTimeoutSeconds): an overdue forked child is
 *    SIGKILLed, an overdue in-process shard is abandoned on its
 *    (detached) worker thread; either way the shard becomes a
 *    HostTimeout outcome and the campaign keeps going. The simulation
 *    event budget (shardEventBudget) complements it deterministically
 *    from inside the simulation — a livelocked shard that stays busy
 *    without finishing exhausts the budget and self-reports
 *    HostTimeout. Both complement the in-sim forward-progress watchdog,
 *    which can only see a *stuck* request, not a stuck host.
 *
 *  - Retry. Only ResourceExhausted outcomes (fork/pipe failure, OOM,
 *    torn pipe output, injected transient faults) are retried, up to
 *    maxRetries with exponential backoff, re-running the *same*
 *    (config, seed) so determinism is preserved. Protocol-level
 *    failures are verdicts about the simulated system — deterministic
 *    per seed — and are never retried; neither are HostCrash or
 *    HostTimeout, which a retry would just reproduce (or worse, mask).
 *
 *  - Checkpointing. With journalPath set, every completed shard is
 *    appended to an append-only JSONL journal (journal.hh). SIGINT and
 *    SIGTERM (handleSignals) trigger a graceful shutdown: queued shards
 *    are cancelled wholesale, running shards finish and are journaled,
 *    and the result is marked interrupted. resume loads the journal,
 *    merges completed shards in index order without re-running them,
 *    and re-executes only shards that are missing or whose journaled
 *    outcome was host-level (a crash/hang describes the old host
 *    environment, not the deterministic simulation, so resume gives
 *    them a fresh chance). Because all aggregates are commutative sums
 *    and grid unions built by the shared ShardMerge, a resumed
 *    campaign's aggregates are bit-identical to an uninterrupted run's
 *    (wall-clock and completion-order fields excepted).
 *
 *  - Repro capture. Any failing shard with preset provenance
 *    (ShardSpec::gpuPreset) gets a DRFTRC01 trace re-recorded into
 *    reproDir, feeding tools/shrink_repro; host-level failures under
 *    fork isolation re-record inside a bounded child, and in-process
 *    host failures fall back to a JSON stub preserving preset + seed.
 *
 * The supervisor's own test harness is the host-fault injector
 * (host_fault.hh), which deterministically makes designated shards
 * crash, hang, or fail transiently — mirroring how proto/fault.hh
 * validates the tester itself.
 */

#ifndef DRF_CAMPAIGN_SUPERVISOR_HH
#define DRF_CAMPAIGN_SUPERVISOR_HH

#include <functional>
#include <memory>
#include <stdexcept>
#include <string>

#include "campaign/campaign.hh"

namespace drf
{

/**
 * Transient host-level failure (fork/OOM/IO). Shards may throw it to
 * signal "the host environment failed me, the same (config, seed) may
 * well succeed"; the supervisor triages it as
 * FailureClass::ResourceExhausted and retries.
 */
class ResourceExhaustedError : public std::runtime_error
{
  public:
    explicit ResourceExhaustedError(const std::string &what)
        : std::runtime_error(what)
    {}
};

/**
 * 1-based attempt number of the shard invocation running on the calling
 * thread (1 outside a shard). Deterministic across isolation modes: the
 * supervisor sets it before invoking the shard, and fork() clones the
 * calling thread, so a shard child observes the same value. The
 * host-fault injector keys its transient faults on it.
 */
unsigned currentShardAttempt();

/**
 * Per-shard supervised execution engine: isolation (fork or in-process
 * barrier), wall-clock reaping via its own watchdog thread, the event
 * budget, bounded transient retry, and repro capture — everything the
 * supervisor does to *one* shard, reusable outside a whole-campaign
 * run. runCampaign drives one instance from its thread pool; a fleet
 * worker (src/fleet) drives one per process so each leased shard gets
 * the same fault containment as a local campaign shard.
 *
 * Thread-safe: run() may be called concurrently from many threads.
 * It reads only the supervision fields of its CampaignConfig;
 * campaign-level policy (journal, resume, signals, merge, early stop)
 * stays with the caller, and setStopCheck lets the caller's early-stop
 * state suppress retries that no longer matter.
 */
class ShardRunner
{
  public:
    explicit ShardRunner(const CampaignConfig &cfg);
    ~ShardRunner();

    ShardRunner(const ShardRunner &) = delete;
    ShardRunner &operator=(const ShardRunner &) = delete;

    /**
     * Install a predicate consulted before each transient retry; when
     * it returns true the current attempt's outcome becomes final.
     * Not thread-safe against concurrent run() — install it first.
     */
    void setStopCheck(std::function<bool()> stop_check);

    /**
     * Run @p spec (campaign position @p index) to a final outcome:
     * attempts + transient retries + repro capture on failure.
     */
    ShardOutcome run(ShardSpec spec, std::size_t index);

  private:
    struct Impl;
    std::unique_ptr<Impl> _impl;
};

} // namespace drf

#endif // DRF_CAMPAIGN_SUPERVISOR_HH
