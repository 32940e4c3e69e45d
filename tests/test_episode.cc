/**
 * @file
 * Property tests for episode generation: the DRF-by-construction rules
 * of Section III.A must hold for every seed and configuration.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <map>
#include <optional>
#include <set>

#include "tester/episode.hh"

using namespace drf;

namespace
{

struct GenFixture
{
    GenFixture(std::uint64_t seed, unsigned actions = 40,
               unsigned lanes = 8, std::uint32_t normal_vars = 256,
               std::uint64_t range = 1 << 13)
        : rng(seed)
    {
        VariableMapConfig vcfg;
        vcfg.numSyncVars = 8;
        vcfg.numNormalVars = normal_vars;
        vcfg.addrRangeBytes = range;
        vmap = std::make_unique<VariableMap>(vcfg, rng);

        EpisodeGenConfig gcfg;
        gcfg.actionsPerEpisode = actions;
        gcfg.lanes = lanes;
        gen = std::make_unique<EpisodeGenerator>(*vmap, gcfg, rng);
    }

    Random rng;
    std::unique_ptr<VariableMap> vmap;
    std::unique_ptr<EpisodeGenerator> gen;
};

/** Visit every active lane op of @p e. */
template <typename Fn>
void
forEachOp(const Episode &e, Fn fn)
{
    for (std::uint32_t a = 0; a < e.numActions(); ++a) {
        for (std::uint32_t lane = 0; lane < e.laneCount(a); ++lane) {
            if (e.laneActive(a, lane))
                fn(a, lane);
        }
    }
}

} // namespace

class EpisodeProperty : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EpisodeProperty, SyncVarIsSynchronization)
{
    GenFixture fx(GetParam());
    for (int i = 0; i < 10; ++i) {
        Episode e = fx.gen->generate(0);
        EXPECT_TRUE(fx.vmap->isSync(e.syncVar));
        fx.gen->retire(e);
    }
}

TEST_P(EpisodeProperty, OpsTargetOnlyNormalVars)
{
    GenFixture fx(GetParam());
    Episode e = fx.gen->generate(0);
    forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
        EXPECT_FALSE(fx.vmap->isSync(e.laneVar(a, lane)));
    });
    fx.gen->retire(e);
}

TEST_P(EpisodeProperty, AtMostOneWriterPerVarInEpisode)
{
    GenFixture fx(GetParam());
    Episode e = fx.gen->generate(0);
    std::map<VarId, unsigned> store_count;
    forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
        if (e.laneIsStore(a, lane))
            ++store_count[e.laneVar(a, lane)];
    });
    for (const auto &[var, count] : store_count)
        EXPECT_EQ(count, 1u) << "var " << var << " stored twice";
    fx.gen->retire(e);
}

TEST_P(EpisodeProperty, ReadsOfWrittenVarOnlyByWriterLaneAfterWrite)
{
    GenFixture fx(GetParam());
    Episode e = fx.gen->generate(0);

    // Track per-variable first-store position.
    std::map<VarId, std::pair<std::uint32_t, std::uint32_t>> store_at;
    forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
        if (e.laneIsStore(a, lane))
            store_at[e.laneVar(a, lane)] = {a, lane};
    });
    forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
        if (e.laneIsStore(a, lane))
            return;
        auto it = store_at.find(e.laneVar(a, lane));
        if (it == store_at.end())
            return;
        // A load of a written var must come from the writer lane and
        // after the store (cross-lane RAW would be a race).
        EXPECT_EQ(it->second.second, lane);
        EXPECT_GT(a, it->second.first);
    });
    fx.gen->retire(e);
}

TEST_P(EpisodeProperty, NoConflictsBetweenActiveEpisodes)
{
    GenFixture fx(GetParam());
    std::vector<Episode> active;
    for (int i = 0; i < 8; ++i)
        active.push_back(fx.gen->generate(i));

    // Paper rules: no two active episodes may touch a variable one of
    // them writes.
    for (std::size_t i = 0; i < active.size(); ++i) {
        for (std::size_t j = 0; j < active.size(); ++j) {
            if (i == j)
                continue;
            for (const Episode::WriteEntry &w : active[i].writes) {
                EXPECT_FALSE(active[j].writesVar(w.var))
                    << "write-write conflict on var " << w.var;
                EXPECT_FALSE(active[j].readsVar(w.var))
                    << "write-read conflict on var " << w.var;
            }
        }
    }
    for (auto &e : active)
        fx.gen->retire(e);
}

TEST_P(EpisodeProperty, RetireAllowsReuse)
{
    // A tiny variable pool: without retirement, conflicts would starve
    // generation; with retirement, every episode gets work.
    GenFixture fx(GetParam(), 30, 4, /*normal_vars=*/16, 1 << 10);
    for (int round = 0; round < 20; ++round) {
        Episode e = fx.gen->generate(0);
        std::uint64_t ops = e.reads.size() + e.writes.size();
        EXPECT_GT(ops, 0u) << "episode starved at round " << round;
        fx.gen->retire(e);
    }
    EXPECT_EQ(fx.gen->active(), 0u);
}

TEST_P(EpisodeProperty, StoreValuesGloballyUnique)
{
    GenFixture fx(GetParam());
    std::set<std::uint32_t> values;
    for (int i = 0; i < 6; ++i) {
        Episode e = fx.gen->generate(i);
        forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
            if (e.laneIsStore(a, lane)) {
                EXPECT_TRUE(values.insert(e.laneValue(a, lane)).second);
            }
        });
        fx.gen->retire(e);
    }
}

TEST_P(EpisodeProperty, ActiveCountsConsistent)
{
    GenFixture fx(GetParam());
    Episode a = fx.gen->generate(0);
    Episode b = fx.gen->generate(1);
    EXPECT_EQ(fx.gen->active(), 2u);
    for (const Episode::WriteEntry &w : a.writes)
        EXPECT_GE(fx.gen->activeWriters(w.var), 1u);
    for (VarId var : a.reads)
        EXPECT_GE(fx.gen->activeReaders(var), 1u);
    fx.gen->retire(a);
    fx.gen->retire(b);
    EXPECT_EQ(fx.gen->active(), 0u);
    for (const Episode::WriteEntry &w : a.writes)
        EXPECT_EQ(fx.gen->activeWriters(w.var), 0u);
}

TEST_P(EpisodeProperty, EpisodeIdsIncrease)
{
    GenFixture fx(GetParam());
    Episode a = fx.gen->generate(0);
    Episode b = fx.gen->generate(0);
    EXPECT_LT(a.id, b.id);
    fx.gen->retire(a);
    fx.gen->retire(b);
}

TEST_P(EpisodeProperty, WriteLinksMatchWriteEntries)
{
    // Every active op's laneWriteIdx either links the op's variable to
    // its (unique) write entry, or is kNoWrite for a load of a variable
    // the episode never stores.
    GenFixture fx(GetParam());
    Episode e = fx.gen->generate(0);
    forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
        const VarId var = e.laneVar(a, lane);
        const std::uint32_t wi = e.laneWriteIdx(a, lane);
        if (e.laneIsStore(a, lane)) {
            ASSERT_LT(wi, e.writes.size());
            EXPECT_EQ(e.writes[wi].var, var);
            EXPECT_EQ(e.writes[wi].info.lane, lane);
            EXPECT_EQ(e.writes[wi].info.value, e.laneValue(a, lane));
        } else if (wi != Episode::kNoWrite) {
            ASSERT_LT(wi, e.writes.size());
            EXPECT_EQ(e.writes[wi].var, var);
        } else {
            EXPECT_FALSE(e.writesVar(var));
        }
    });
    fx.gen->retire(e);
}

TEST_P(EpisodeProperty, GenerateIntoReusesStorageBitIdentically)
{
    // generateInto into a reused episode must produce the same stream as
    // fresh generate() calls from an identically seeded generator.
    GenFixture fresh(GetParam());
    GenFixture reused(GetParam());
    Episode scratch;
    for (int i = 0; i < 10; ++i) {
        Episode a = fresh.gen->generate(i % 3);
        reused.gen->generateInto(scratch, i % 3);
        EXPECT_EQ(a.id, scratch.id);
        EXPECT_EQ(a.syncVar, scratch.syncVar);
        ASSERT_EQ(a.numActions(), scratch.numActions());
        forEachOp(a, [&](std::uint32_t act, std::uint32_t lane) {
            ASSERT_TRUE(scratch.laneActive(act, lane));
            EXPECT_EQ(a.laneIsStore(act, lane),
                      scratch.laneIsStore(act, lane));
            EXPECT_EQ(a.laneVar(act, lane), scratch.laneVar(act, lane));
            EXPECT_EQ(a.laneValue(act, lane),
                      scratch.laneValue(act, lane));
        });
        EXPECT_EQ(a.writes.size(), scratch.writes.size());
        EXPECT_EQ(a.reads, scratch.reads);
        fresh.gen->retire(a);
        reused.gen->retire(scratch);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EpisodeProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55,
                                           89));

// ----- packed conflict flags against the unpacked predicate --------------

namespace
{

/**
 * Reference episode generator: the generation rules written directly
 * over separate per-variable planes (active reader/writer counts, the
 * episode's writer lane and read set, and the scoped planes), drawing
 * from its own identically seeded Random. It records the variable each
 * lane op picked, in order.
 */
class RefGenerator
{
  public:
    struct Op
    {
        std::uint32_t action, lane;
        bool store;
        VarId var;
    };

    RefGenerator(const VariableMap &vmap, const EpisodeGenConfig &cfg,
                 std::uint64_t seed)
        : _vmap(vmap), _cfg(cfg), _rng(seed),
          _readers(vmap.numVars(), 0), _writers(vmap.numVars(), 0),
          _lastWriterCu(vmap.numVars(), -1),
          _pendingOwner(vmap.numVars(), -1),
          _pendingStamp(vmap.numVars(), 0)
    {
    }

    /** Generate one episode; @return its ops in generation order. */
    std::vector<Op>
    generate(std::uint32_t wf, Scope &scope, VarId &sync_var,
             std::vector<VarId> &writes, std::vector<VarId> &reads)
    {
        std::vector<Op> ops;
        std::map<VarId, unsigned> writer_lane;
        std::set<VarId> read_set;
        writes.clear();
        reads.clear();
        std::uint64_t id = _nextId++;
        sync_var = _vmap.syncVar(
            static_cast<std::uint32_t>(_rng.below(_vmap.numSyncVars())));
        scope = Scope::None;
        if (_cfg.scopeMode != ScopeMode::None)
            scope = _rng.pct(_cfg.ctaScopePct) ? Scope::Cta : Scope::Gpu;
        auto cu = static_cast<std::int32_t>(wf / _cfg.wfsPerCu);
        auto pending_elsewhere = [&](VarId v) {
            return _cfg.scopeMode == ScopeMode::Scoped &&
                   _pendingOwner[v] >= 0 && _pendingOwner[v] != cu;
        };
        for (std::uint32_t a = 0; a < _cfg.actionsPerEpisode; ++a) {
            for (std::uint32_t lane = 0; lane < _cfg.lanes; ++lane) {
                if (!_rng.pct(_cfg.laneActivePct))
                    continue;
                bool store = _rng.pct(_cfg.storePct);
                std::optional<VarId> pick;
                for (unsigned t = 0; t < _cfg.pickAttempts && !pick; ++t) {
                    VarId v = _vmap.normalVar(static_cast<std::uint32_t>(
                        _rng.below(_vmap.numNormalVars())));
                    bool ok;
                    if (store) {
                        ok = _writers[v] == 0 && _readers[v] == 0 &&
                             !writer_lane.count(v) && !read_set.count(v) &&
                             !pending_elsewhere(v);
                    } else {
                        auto it = writer_lane.find(v);
                        ok = _writers[v] == 0 &&
                             (it == writer_lane.end() ||
                              it->second == lane) &&
                             !pending_elsewhere(v) &&
                             !(_cfg.scopeMode == ScopeMode::Scoped &&
                               scope == Scope::Cta &&
                               _lastWriterCu[v] >= 0 &&
                               _lastWriterCu[v] != cu);
                    }
                    if (ok)
                        pick = v;
                }
                if (!pick)
                    continue;
                ops.push_back(Op{a, lane, store, *pick});
                if (store) {
                    writer_lane[*pick] = lane;
                    writes.push_back(*pick);
                } else if (read_set.insert(*pick).second) {
                    reads.push_back(*pick);
                }
            }
        }
        for (VarId v : writes)
            ++_writers[v];
        for (VarId v : reads)
            ++_readers[v];
        _live[id] = Live{wf, scope, writes, reads};
        return ops;
    }

    void
    retire(std::uint64_t id)
    {
        Live ep = _live.at(id);
        _live.erase(id);
        for (VarId v : ep.writes)
            --_writers[v];
        for (VarId v : ep.reads)
            --_readers[v];
        if (_cfg.scopeMode != ScopeMode::Scoped)
            return;
        auto cu = static_cast<std::int32_t>(ep.wf / _cfg.wfsPerCu);
        for (VarId v : ep.writes)
            _lastWriterCu[v] = cu;
        for (VarId v = 0; v < _pendingOwner.size(); ++v) {
            if (ep.scope == Scope::Cta) {
                if (std::find(ep.writes.begin(), ep.writes.end(), v) !=
                    ep.writes.end()) {
                    _pendingOwner[v] = cu;
                    _pendingStamp[v] = _nextId;
                }
            } else if (_pendingOwner[v] == cu && _pendingStamp[v] <= id) {
                _pendingOwner[v] = -1;
            }
        }
    }

  private:
    struct Live
    {
        std::uint32_t wf;
        Scope scope;
        std::vector<VarId> writes, reads;
    };

    const VariableMap &_vmap;
    EpisodeGenConfig _cfg;
    Random _rng;
    std::vector<std::uint32_t> _readers, _writers;
    std::vector<std::int32_t> _lastWriterCu, _pendingOwner;
    std::vector<std::uint64_t> _pendingStamp;
    std::map<std::uint64_t, Live> _live;
    std::uint64_t _nextId = 0;
};

} // namespace

class EpisodePackedFlags : public ::testing::TestWithParam<ScopeMode>
{
};

TEST_P(EpisodePackedFlags, PicksMatchUnpackedPredicate)
{
    // Random interleavings of generate and retire over a small variable
    // pool (so most picks conflict): every episode must pick exactly the
    // variables the unpacked rules pick, from the same RNG draws.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Random map_rng(seed);
        VariableMapConfig vcfg;
        vcfg.numSyncVars = 4;
        vcfg.numNormalVars = 48;
        vcfg.addrRangeBytes = 1 << 12;
        VariableMap vmap(vcfg, map_rng);

        EpisodeGenConfig gcfg;
        gcfg.actionsPerEpisode = 12;
        gcfg.lanes = 8;
        gcfg.pickAttempts = 6;
        gcfg.scopeMode = GetParam();
        gcfg.wfsPerCu = 2;

        Random gen_rng(seed * 1000 + 7);
        EpisodeGenerator gen(vmap, gcfg, gen_rng);
        RefGenerator ref(vmap, gcfg, seed * 1000 + 7);
        Random driver(seed);
        std::vector<Episode> live;
        for (int step = 0; step < 300; ++step) {
            if (!live.empty() && (live.size() >= 6 || driver.pct(45))) {
                std::size_t k = driver.below(live.size());
                gen.retire(live[k]);
                ref.retire(live[k].id);
                live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
                continue;
            }
            auto wf = static_cast<std::uint32_t>(driver.below(8));
            Episode e;
            gen.generateInto(e, wf);
            Scope scope;
            VarId sync_var;
            std::vector<VarId> writes, reads;
            auto ops = ref.generate(wf, scope, sync_var, writes, reads);
            ASSERT_EQ(e.syncVar, sync_var) << "step " << step;
            ASSERT_EQ(e.scope, scope) << "step " << step;
            std::size_t n = 0;
            forEachOp(e, [&](std::uint32_t a, std::uint32_t lane) {
                ASSERT_LT(n, ops.size());
                EXPECT_EQ(a, ops[n].action);
                EXPECT_EQ(lane, ops[n].lane);
                EXPECT_EQ(e.laneIsStore(a, lane), ops[n].store);
                EXPECT_EQ(e.laneVar(a, lane), ops[n].var)
                    << "step " << step << " action " << a << " lane "
                    << lane;
                ++n;
            });
            ASSERT_EQ(n, ops.size()) << "step " << step;
            std::vector<VarId> got_writes;
            for (const Episode::WriteEntry &w : e.writes)
                got_writes.push_back(w.var);
            ASSERT_EQ(got_writes, writes);
            ASSERT_EQ(e.reads, reads);
            live.push_back(std::move(e));
        }
        for (const Episode &e : live)
            gen.retire(e);
        EXPECT_EQ(gen.active(), 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(ScopeModes, EpisodePackedFlags,
                         ::testing::Values(ScopeMode::None,
                                           ScopeMode::Scoped,
                                           ScopeMode::Racy));
