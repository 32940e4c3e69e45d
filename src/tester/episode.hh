/**
 * @file
 * Episodes: the tester's critical-section-shaped unit of work
 * (Section III.A, Fig. 3).
 *
 * An episode is executed by one wavefront and consists of an atomic
 * acquire on a synchronization variable, a sequence of vector actions
 * (each lane performing a load or store on a normal variable), and an
 * atomic release on the same synchronization variable.
 *
 * The generator enforces data-race freedom *by construction* across all
 * concurrently active episodes and across the lanes of the episode
 * itself, using the paper's two rules:
 *
 *  1. no load or store is generated for a variable being stored by an
 *     active episode, and
 *  2. no store is generated for a variable being loaded by an active
 *     episode,
 *
 * where "active" includes the partially generated episode's own other
 * lanes (lockstep issue does not order memory accesses between lanes).
 * The only sanctioned read-after-write is a lane re-reading the variable
 * it wrote itself, which program order makes deterministic.
 *
 * With scoped synchronization enabled (ScopeMode::Scoped) each episode
 * additionally draws a synchronization scope: a CTA-scoped release skips
 * the write-through drain (VIPER) or dirty writeback (LRCC), and a
 * CTA-scoped acquire skips the flash invalidate, so CTA-scoped episodes
 * are ordered only within their own CU (the L1 sharing domain stands in
 * for the CTA). Two more rules keep such programs scoped-DRF:
 *
 *  3. a CTA-scoped episode only loads variables last written by its own
 *     CU (or never written) — other CUs' values may be stale in the
 *     un-invalidated L1, and
 *  4. variables written by a retired CTA-scoped episode stay "pending"
 *     on the writing CU — no other CU may load or store them — until a
 *     later GPU-scoped release from that CU flushes them to the
 *     globally visible level.
 *
 * ScopeMode::Racy draws scopes but skips rules 3/4, deliberately
 * generating scoped races so the ScopeViolation failure class is
 * reachable (the tester's negative arm).
 *
 * Episode state is structure-of-arrays: instead of one
 * vector<optional<LaneOp>> per action, an episode keeps flat per-lane-op
 * planes (variable ids, store values, write links) plus active/store
 * bitmasks, indexed CSR-style through per-action lane offsets. The hot
 * issue/check loops walk contiguous arrays; a reused Episode regenerates
 * with zero heap traffic because every plane keeps its capacity (see
 * DESIGN.md §10).
 */

#ifndef DRF_TESTER_EPISODE_HH
#define DRF_TESTER_EPISODE_HH

#include <cassert>
#include <cstdint>
#include <optional>
#include <vector>

#include "mem/scope.hh"
#include "sim/random.hh"
#include "tester/variable_map.hh"

namespace drf
{

/** Kind of a lane's op within a vector action. */
struct LaneOp
{
    enum class Kind
    {
        Load,
        Store,
    };
};

/** A generated episode (structure-of-arrays). */
struct Episode
{
    std::uint64_t id = 0;
    std::uint32_t wavefrontId = 0;
    VarId syncVar = 0;

    /**
     * Synchronization scope of the episode's acquire/release pair.
     * Scope::None (the default) is the conservative GPU-wide behavior
     * of unscoped runs.
     */
    Scope scope = Scope::None;

    /** Final value written per variable, and the lane that wrote it. */
    struct WriteInfo
    {
        unsigned lane;
        std::uint32_t value;
        Tick completedAt = 0; ///< filled in when the store is acked
    };

    /** One written variable, in first-store order. */
    struct WriteEntry
    {
        VarId var;
        WriteInfo info;
    };

    /** Sentinel write link for loads of never-written variables. */
    static constexpr std::uint32_t kNoWrite = 0xffffffffu;

    /** Written variables (one entry per variable, insertion order). */
    std::vector<WriteEntry> writes;

    /** Variables loaded by the episode (distinct, insertion order). */
    std::vector<VarId> reads;

    // ----- shape ------------------------------------------------------

    std::uint32_t numActions() const { return _numActions; }

    /** Lanes participating (active or not) in action @p a. */
    std::uint32_t
    laneCount(std::uint32_t a) const
    {
        return _laneOffset[a + 1] - _laneOffset[a];
    }

    /** True if any lane of action @p a carries an op. */
    bool actionHasActiveLane(std::uint32_t a) const { return _anyActive[a]; }

    bool
    laneActive(std::uint32_t a, std::uint32_t lane) const
    {
        return testBit(_active, _laneOffset[a] + lane);
    }

    /** @pre laneActive(a, lane) */
    bool
    laneIsStore(std::uint32_t a, std::uint32_t lane) const
    {
        return testBit(_isStore, _laneOffset[a] + lane);
    }

    /** @pre laneActive(a, lane) */
    VarId
    laneVar(std::uint32_t a, std::uint32_t lane) const
    {
        return _var[_laneOffset[a] + lane];
    }

    /** Store value of an active store lane (0 for loads). */
    std::uint32_t
    laneValue(std::uint32_t a, std::uint32_t lane) const
    {
        return _value[_laneOffset[a] + lane];
    }

    /**
     * Index into writes for a store op, or for a load reading a variable
     * this episode writes; kNoWrite otherwise.
     */
    std::uint32_t
    laneWriteIdx(std::uint32_t a, std::uint32_t lane) const
    {
        return _writeIdx[_laneOffset[a] + lane];
    }

    // ----- write/read index lookups -----------------------------------

    const WriteInfo *
    findWrite(VarId var) const
    {
        for (const WriteEntry &w : writes) {
            if (w.var == var)
                return &w.info;
        }
        return nullptr;
    }

    WriteInfo *
    findWrite(VarId var)
    {
        for (WriteEntry &w : writes) {
            if (w.var == var)
                return &w.info;
        }
        return nullptr;
    }

    bool writesVar(VarId var) const { return findWrite(var) != nullptr; }

    bool
    readsVar(VarId var) const
    {
        for (VarId v : reads) {
            if (v == var)
                return true;
        }
        return false;
    }

    // ----- building ---------------------------------------------------

    /** Reset to an empty episode, keeping every plane's capacity. */
    void
    beginBuild()
    {
        scope = Scope::None;
        _numActions = 0;
        _laneOffset.clear();
        _laneOffset.push_back(0);
        _active.clear();
        _isStore.clear();
        _var.clear();
        _value.clear();
        _writeIdx.clear();
        _anyActive.clear();
        writes.clear();
        reads.clear();
    }

    /** Append one action with @p lanes lane slots (all inactive). */
    void
    addAction(std::uint32_t lanes)
    {
        std::uint32_t base = _laneOffset.back();
        _laneOffset.push_back(base + lanes);
        _var.resize(base + lanes, 0);
        _value.resize(base + lanes, 0);
        _writeIdx.resize(base + lanes, kNoWrite);
        std::size_t words = (static_cast<std::size_t>(base) + lanes + 63) / 64;
        _active.resize(words, 0);
        _isStore.resize(words, 0);
        _anyActive.push_back(0);
        ++_numActions;
    }

    /**
     * Mark lane @p lane of action @p a as a load of @p var.
     * @param write_idx index of the episode's own write to @p var
     *        (same-lane read-after-write), or kNoWrite.
     */
    void
    setLoad(std::uint32_t a, std::uint32_t lane, VarId var,
            std::uint32_t write_idx)
    {
        std::size_t idx = _laneOffset[a] + lane;
        setBit(_active, idx);
        _var[idx] = var;
        _writeIdx[idx] = write_idx;
        _anyActive[a] = 1;
    }

    /** Mark lane @p lane of action @p a as a store of @p value. */
    void
    setStore(std::uint32_t a, std::uint32_t lane, VarId var,
             std::uint32_t value, std::uint32_t write_idx)
    {
        std::size_t idx = _laneOffset[a] + lane;
        setBit(_active, idx);
        setBit(_isStore, idx);
        _var[idx] = var;
        _value[idx] = value;
        _writeIdx[idx] = write_idx;
        _anyActive[a] = 1;
    }

    /** Append a write entry; @return its index for laneWriteIdx links. */
    std::uint32_t
    addWrite(VarId var, unsigned lane, std::uint32_t value)
    {
        writes.push_back(WriteEntry{var, WriteInfo{lane, value, 0}});
        return static_cast<std::uint32_t>(writes.size() - 1);
    }

    /**
     * Rebuild writes, reads, and the per-lane write links from the op
     * planes — the deserialization hook (trace loading fills only the
     * planes). Mirrors the generator's invariants: one write entry per
     * variable (the last store's lane/value wins, as the old hash-map
     * rebuild did) and a distinct read list in first-load order.
     */
    void rebuildIndexes();

  private:
    static bool
    testBit(const std::vector<std::uint64_t> &bits, std::size_t i)
    {
        return (bits[i / 64] >> (i % 64)) & 1u;
    }

    static void
    setBit(std::vector<std::uint64_t> &bits, std::size_t i)
    {
        bits[i / 64] |= std::uint64_t{1} << (i % 64);
    }

    std::uint32_t _numActions = 0;
    std::vector<std::uint32_t> _laneOffset{0}; ///< CSR offsets, size n+1
    std::vector<std::uint64_t> _active;     ///< lane-participates bitmask
    std::vector<std::uint64_t> _isStore;    ///< store/load bitmask
    std::vector<VarId> _var;                ///< per-lane-op variable
    std::vector<std::uint32_t> _value;      ///< per-lane-op store value
    std::vector<std::uint32_t> _writeIdx;   ///< per-lane-op write link
    std::vector<std::uint8_t> _anyActive;   ///< per-action fast skip
};

/** Knobs for episode generation. */
struct EpisodeGenConfig
{
    unsigned actionsPerEpisode = 100;
    unsigned lanes = 16;          ///< wavefront width
    unsigned storePct = 40;       ///< store probability per lane op
    unsigned laneActivePct = 75;  ///< probability a lane joins an action
    unsigned pickAttempts = 16;   ///< rule-satisfying variable search

    /**
     * Scoped-synchronization mode. ScopeMode::None draws no scopes (and
     * performs zero extra RNG draws, keeping unscoped runs bit-identical
     * to pre-scope builds); Scoped draws a scope per episode and
     * enforces rules 3/4 above; Racy draws scopes without the rules.
     */
    ScopeMode scopeMode = ScopeMode::None;
    unsigned ctaScopePct = 50; ///< CTA probability per scoped episode
    unsigned wfsPerCu = 1;     ///< wavefronts per CU (CU = wfId / this)
};

/**
 * Generates race-free episodes and tracks the active-episode conflict
 * sets.
 */
class EpisodeGenerator
{
  public:
    EpisodeGenerator(const VariableMap &vmap, const EpisodeGenConfig &cfg,
                     Random &rng);

    /**
     * Generate the next episode for @p wavefront_id into @p out,
     * reusing its storage (steady-state generation is allocation-free).
     * The episode is immediately accounted active; call retire() when
     * its release completes.
     */
    void generateInto(Episode &out, std::uint32_t wavefront_id);

    /** Convenience wrapper returning a fresh episode. */
    Episode
    generate(std::uint32_t wavefront_id)
    {
        Episode e;
        generateInto(e, wavefront_id);
        return e;
    }

    /** Remove a retired episode from the active conflict sets. */
    void retire(const Episode &episode);

    /** Episodes generated so far. */
    std::uint64_t generated() const { return _nextEpisodeId; }

    /** Active (generated, not retired) episode count. */
    std::uint64_t active() const { return _activeCount; }

    /** Current count of active episodes reading a variable. */
    std::uint32_t
    activeReaders(VarId var) const
    {
        return _activeReaders[var];
    }

    /** Current count of active episodes writing a variable. */
    std::uint32_t
    activeWriters(VarId var) const
    {
        return _activeWriters[var];
    }

  private:
    /** Try to pick a variable a store by CU @p cu may legally target. */
    std::optional<VarId> pickStoreVar(unsigned cu);

    /** Try to pick a variable a load on @p lane may legally target. */
    std::optional<VarId> pickLoadVar(unsigned lane, unsigned cu,
                                     Scope scope);

    /** Scoped-discipline bookkeeping at episode retirement (rule 4). */
    void retireScoped(const Episode &episode);

    const VariableMap *_vmap;
    EpisodeGenConfig _cfg;
    Random *_rng;

    /** Indexed by VarId: active-episode reader/writer counts. */
    std::vector<std::uint32_t> _activeReaders;
    std::vector<std::uint32_t> _activeWriters;
    std::uint64_t _activeCount = 0;

    /**
     * Conflict flags, one byte per variable, tested first by every pick
     * attempt: rules 1/2 and the own-episode rules need only this byte,
     * and most store picks in a busy system fail it on all attempts, so
     * the plane is kept small enough to stay cache-resident. The
     * active-episode bits mirror a nonzero count above; the episode
     * bits are scratch for the episode being generated.
     */
    enum ConflictFlag : std::uint8_t
    {
        kActiveWriter = 1, ///< some active episode stores the variable
        kActiveReader = 2, ///< some active episode loads the variable
        kEpWriter = 4,     ///< the episode being generated stores it
        kEpRead = 8,       ///< the episode being generated loads it
    };
    std::vector<std::uint8_t> _conflict;

    /**
     * Per-variable scratch for the episode currently being generated,
     * meaningful only while the variable's kEpWriter flag is set: the
     * writing lane and its write-entry index. These answer the
     * generation rules' own-episode queries in O(1) without a
     * per-episode hash map.
     */
    std::vector<std::uint32_t> _epWriterLane;
    std::vector<std::uint32_t> _epWriteIdx;

    /**
     * Scoped-discipline planes (ScopeMode::Scoped only). Per variable:
     * the CU of the last retired writer (-1 = never written), and the
     * owner of not-yet-flushed CTA-scoped writes (-1 = none). The stamp
     * records the episode-id horizon at which a CTA-pending entry was
     * (re-)armed: a GPU-scoped episode only flushes entries stamped
     * before its own generation, because its release's writeback/drain
     * sweep predates anything dirtied afterwards.
     */
    std::vector<std::int32_t> _lastWriterCu;
    std::vector<std::int32_t> _ctaPendingOwner;
    std::vector<std::uint64_t> _ctaPendingStamp;
    std::vector<std::vector<VarId>> _ctaPendingByCu;

    std::uint64_t _nextEpisodeId = 0;
    std::uint32_t _nextStoreValue = 1;
};

} // namespace drf

#endif // DRF_TESTER_EPISODE_HH
