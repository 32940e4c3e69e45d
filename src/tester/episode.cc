#include "tester/episode.hh"

#include <cassert>

namespace drf
{

void
Episode::rebuildIndexes()
{
    writes.clear();
    reads.clear();

    // Pass 1: collect the write set. One entry per variable; a later
    // store to the same variable overwrites the lane/value in place.
    for (std::uint32_t a = 0; a < _numActions; ++a) {
        for (std::uint32_t lane = 0; lane < laneCount(a); ++lane) {
            if (!laneActive(a, lane) || !laneIsStore(a, lane))
                continue;
            VarId var = laneVar(a, lane);
            if (WriteInfo *info = findWrite(var)) {
                info->lane = lane;
                info->value = laneValue(a, lane);
                info->completedAt = 0;
            } else {
                addWrite(var, lane, laneValue(a, lane));
            }
        }
    }

    // Pass 2: link every op to its write entry and collect the distinct
    // read list in first-load order.
    for (std::uint32_t a = 0; a < _numActions; ++a) {
        for (std::uint32_t lane = 0; lane < laneCount(a); ++lane) {
            if (!laneActive(a, lane))
                continue;
            std::size_t idx = _laneOffset[a] + lane;
            VarId var = _var[idx];
            std::uint32_t wi = kNoWrite;
            for (std::uint32_t w = 0; w < writes.size(); ++w) {
                if (writes[w].var == var) {
                    wi = w;
                    break;
                }
            }
            _writeIdx[idx] = wi;
            if (!laneIsStore(a, lane) && !readsVar(var))
                reads.push_back(var);
        }
    }
}

EpisodeGenerator::EpisodeGenerator(const VariableMap &vmap,
                                   const EpisodeGenConfig &cfg,
                                   Random &rng)
    : _vmap(&vmap), _cfg(cfg), _rng(&rng),
      _activeReaders(vmap.numVars(), 0),
      _activeWriters(vmap.numVars(), 0),
      _conflict(vmap.numVars(), 0),
      _epWriterLane(vmap.numVars(), 0),
      _epWriteIdx(vmap.numVars(), Episode::kNoWrite),
      _lastWriterCu(vmap.numVars(), -1),
      _ctaPendingOwner(vmap.numVars(), -1),
      _ctaPendingStamp(vmap.numVars(), 0)
{
    assert(vmap.numSyncVars() > 0 && vmap.numNormalVars() > 0);
    assert(cfg.wfsPerCu > 0);
}

std::optional<VarId>
EpisodeGenerator::pickStoreVar(unsigned cu)
{
    for (unsigned attempt = 0; attempt < _cfg.pickAttempts; ++attempt) {
        VarId var = _vmap->normalVar(static_cast<std::uint32_t>(
            _rng->below(_vmap->numNormalVars())));
        // Rule 1 and 2 against other active episodes; within the
        // episode, one writer per variable, and never write what any
        // lane already read (lanes are unordered peers).
        if (_conflict[var] != 0)
            continue;
        // Rule 4: another CU's CTA-pending writes are not globally
        // visible yet; storing over them would race with the eventual
        // flush.
        if (_cfg.scopeMode == ScopeMode::Scoped &&
            _ctaPendingOwner[var] >= 0 &&
            _ctaPendingOwner[var] != static_cast<std::int32_t>(cu))
            continue;
        return var;
    }
    return std::nullopt;
}

std::optional<VarId>
EpisodeGenerator::pickLoadVar(unsigned lane, unsigned cu, Scope scope)
{
    for (unsigned attempt = 0; attempt < _cfg.pickAttempts; ++attempt) {
        VarId var = _vmap->normalVar(static_cast<std::uint32_t>(
            _rng->below(_vmap->numNormalVars())));
        // Rule 1 against other active episodes.
        std::uint8_t flags = _conflict[var];
        if (flags & kActiveWriter)
            continue;
        // Within the episode: only the writing lane itself may re-read
        // its own store (program order makes that deterministic).
        if ((flags & kEpWriter) && _epWriterLane[var] != lane)
            continue;
        if (_cfg.scopeMode == ScopeMode::Scoped) {
            // Rule 4: another CU's CTA-pending value is not visible.
            if (_ctaPendingOwner[var] >= 0 &&
                _ctaPendingOwner[var] != static_cast<std::int32_t>(cu))
                continue;
            // Rule 3: a CTA-scoped acquire does not invalidate the L1,
            // so another CU's last write may still be shadowed by a
            // stale local copy.
            if (scope == Scope::Cta && _lastWriterCu[var] >= 0 &&
                _lastWriterCu[var] != static_cast<std::int32_t>(cu))
                continue;
        }
        return var;
    }
    return std::nullopt;
}

void
EpisodeGenerator::generateInto(Episode &episode, std::uint32_t wavefront_id)
{
    episode.beginBuild();
    episode.id = _nextEpisodeId++;
    episode.wavefrontId = wavefront_id;
    episode.syncVar = _vmap->syncVar(static_cast<std::uint32_t>(
        _rng->below(_vmap->numSyncVars())));
    // The scope draw only happens in scoped/racy modes: ScopeMode::None
    // must consume exactly the pre-scope RNG sequence so unscoped runs
    // stay bit-identical (pinned by the golden-digest tests).
    if (_cfg.scopeMode != ScopeMode::None) {
        episode.scope =
            _rng->pct(_cfg.ctaScopePct) ? Scope::Cta : Scope::Gpu;
    }
    unsigned cu = wavefront_id / _cfg.wfsPerCu;

    for (unsigned a = 0; a < _cfg.actionsPerEpisode; ++a) {
        episode.addAction(_cfg.lanes);
        for (unsigned lane = 0; lane < _cfg.lanes; ++lane) {
            if (!_rng->pct(_cfg.laneActivePct))
                continue;
            bool is_store = _rng->pct(_cfg.storePct);
            if (is_store) {
                auto var = pickStoreVar(cu);
                if (!var)
                    continue; // conflict space exhausted; skip the slot
                std::uint32_t value = _nextStoreValue++;
                std::uint32_t wi = episode.addWrite(*var, lane, value);
                episode.setStore(a, lane, *var, value, wi);
                _conflict[*var] |= kEpWriter;
                _epWriterLane[*var] = lane;
                _epWriteIdx[*var] = wi;
            } else {
                auto var = pickLoadVar(lane, cu, episode.scope);
                if (!var)
                    continue;
                std::uint8_t &flags = _conflict[*var];
                episode.setLoad(a, lane, *var,
                                (flags & kEpWriter) ? _epWriteIdx[*var]
                                                    : Episode::kNoWrite);
                if (!(flags & kEpRead)) {
                    flags |= kEpRead;
                    episode.reads.push_back(*var);
                }
            }
        }
    }

    // Publish the episode's footprint so episodes generated while this
    // one is active cannot conflict with it — and clear the per-episode
    // scratch for the next build (touched entries only, so the sweep
    // costs O(footprint), not O(numVars)).
    for (const Episode::WriteEntry &w : episode.writes) {
        ++_activeWriters[w.var];
        _conflict[w.var] = static_cast<std::uint8_t>(
            (_conflict[w.var] & ~kEpWriter) | kActiveWriter);
    }
    for (VarId var : episode.reads) {
        ++_activeReaders[var];
        _conflict[var] = static_cast<std::uint8_t>(
            (_conflict[var] & ~kEpRead) | kActiveReader);
    }
    ++_activeCount;
}

void
EpisodeGenerator::retire(const Episode &episode)
{
    for (const Episode::WriteEntry &w : episode.writes) {
        assert(_activeWriters[w.var] > 0);
        if (--_activeWriters[w.var] == 0)
            _conflict[w.var] &= static_cast<std::uint8_t>(~kActiveWriter);
    }
    for (VarId var : episode.reads) {
        assert(_activeReaders[var] > 0);
        if (--_activeReaders[var] == 0)
            _conflict[var] &= static_cast<std::uint8_t>(~kActiveReader);
    }
    assert(_activeCount > 0);
    --_activeCount;
    if (_cfg.scopeMode == ScopeMode::Scoped)
        retireScoped(episode);
}

void
EpisodeGenerator::retireScoped(const Episode &episode)
{
    unsigned cu = episode.wavefrontId / _cfg.wfsPerCu;
    auto cui = static_cast<std::int32_t>(cu);
    for (const Episode::WriteEntry &w : episode.writes)
        _lastWriterCu[w.var] = cui;

    if (episode.scope == Scope::Cta) {
        // The CTA-scoped release skipped the write-through drain (VIPER)
        // or the dirty writeback (LRCC): the writes stay pending on this
        // CU until a later GPU-scoped release from the same CU flushes
        // them (rule 4).
        if (_ctaPendingByCu.size() <= cu)
            _ctaPendingByCu.resize(cu + 1);
        for (const Episode::WriteEntry &w : episode.writes) {
            if (_ctaPendingOwner[w.var] != cui)
                _ctaPendingByCu[cu].push_back(w.var);
            _ctaPendingOwner[w.var] = cui;
            _ctaPendingStamp[w.var] = _nextEpisodeId;
        }
        return;
    }

    // GPU-scoped (or None) release: its writeback+drain flushed every
    // CTA-pending write from this CU that predates this episode's
    // generation. Entries stamped later may have dirtied lines after the
    // release's sweep started, so they conservatively stay pending.
    if (_ctaPendingByCu.size() <= cu)
        return;
    auto &pend = _ctaPendingByCu[cu];
    std::size_t keep = 0;
    for (std::size_t i = 0; i < pend.size(); ++i) {
        VarId var = pend[i];
        if (_ctaPendingOwner[var] == cui &&
            _ctaPendingStamp[var] <= episode.id) {
            _ctaPendingOwner[var] = -1;
            continue;
        }
        pend[keep++] = pend[i];
    }
    pend.resize(keep);
}

} // namespace drf
