#include "core/cb_executor.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>

#include "analysis/racecheck.hpp"
#include "analysis/schedshake.hpp"
#include "common/checked.hpp"
#include "common/error.hpp"
#include "core/block_plan.hpp"
#include "core/cake_gemm.hpp"
#include "obs/metrics.hpp"
#include "obs/perf.hpp"
#include "obs/trace.hpp"
#include "threading/thread_pool.hpp"

namespace cake {

namespace {

/// Per-tile micro-kernel latency histogram (src/obs). The id is resolved
/// once; calls are dead code in CAKE_TRACE_DISABLED builds because
/// metrics_enabled() is constexpr false at every use site.
obs::MetricId tile_latency_hist()
{
    static const obs::MetricId id =
        obs::histogram("cake.kernel.tile_ns", obs::latency_bounds_ns());
    return id;
}

/// Publish one multiply's CakeStats into the obs metrics registry, so a
/// snapshot at the end of a bench/tool run carries the same phase
/// decomposition the per-call struct reports.
void publish_cake_stats(const CakeStats& s)
{
    if (!obs::metrics_enabled()) return;
    static const obs::MetricId multiplies =
        obs::counter("cake.gemm.multiplies");
    static const obs::MetricId blocks = obs::counter("cake.gemm.blocks");
    static const obs::MetricId a_packs = obs::counter("cake.gemm.a_packs");
    static const obs::MetricId b_packs = obs::counter("cake.gemm.b_packs");
    static const obs::MetricId c_flushes =
        obs::counter("cake.gemm.c_flushes");
    static const obs::MetricId dram_rd =
        obs::counter("cake.gemm.dram_read_bytes");
    static const obs::MetricId dram_wr =
        obs::counter("cake.gemm.dram_write_bytes");
    static const obs::MetricId pack_s = obs::gauge("cake.gemm.pack_s");
    static const obs::MetricId compute_s =
        obs::gauge("cake.gemm.compute_s");
    static const obs::MetricId flush_s = obs::gauge("cake.gemm.flush_s");
    static const obs::MetricId stall_s = obs::gauge("cake.gemm.stall_s");
    static const obs::MetricId total_s = obs::gauge("cake.gemm.total_s");
    static const obs::MetricId overlap =
        obs::gauge("cake.gemm.overlap_efficiency");
    obs::counter_add(multiplies, 1);
    obs::counter_add(blocks,
                     static_cast<std::uint64_t>(s.blocks_executed));
    obs::counter_add(a_packs, static_cast<std::uint64_t>(s.a_packs));
    obs::counter_add(b_packs, static_cast<std::uint64_t>(s.b_packs));
    obs::counter_add(c_flushes, static_cast<std::uint64_t>(s.c_flushes));
    obs::counter_add(dram_rd, s.dram_read_bytes);
    obs::counter_add(dram_wr, s.dram_write_bytes);
    obs::gauge_set(pack_s, s.pack_seconds);
    obs::gauge_set(compute_s, s.compute_seconds);
    obs::gauge_set(flush_s, s.flush_seconds);
    obs::gauge_set(stall_s, s.stall_seconds);
    obs::gauge_set(total_s, s.total_seconds);
    obs::gauge_set(overlap, s.overlap_efficiency);
}

/// CAKE_RACECHECK: retire a shadow-ownership region when the executor
/// scope exits, including through an exception unwinding out of the team.
/// Compiles away entirely in non-racecheck builds.
struct ScopedRegion {
    racecheck::RegionId id;

    explicit ScopedRegion(racecheck::RegionId region) : id(region) {}
    ScopedRegion(const ScopedRegion&) = delete;
    ScopedRegion& operator=(const ScopedRegion&) = delete;
    ~ScopedRegion() { racecheck::region_retire(id); }
};

}  // namespace

template <typename T>
PackedB<T> CbExecutor<T>::pack_weights(ThreadPool& pool,
                                       const CbBlockParams& params,
                                       index_t nr, const T* b, index_t ldb,
                                       index_t k, index_t n, bool tb)
{
    using Tr = CbTraits<T>;
    PackedB<T> packed;
    packed.params_ = params;
    packed.k_ = k;
    packed.n_ = n;
    packed.kb_ = ceil_div(k, params.k_blk);
    packed.nb_ = ceil_div(n, params.n_blk);
    packed.stride_ = static_cast<std::size_t>(
        Tr::packed_k(params.k_blk) * round_up(params.n_blk, nr));
    packed.data_ = AlignedBuffer<T>(
        static_cast<std::size_t>(packed.kb_ * packed.nb_) * packed.stride_);

    pool.parallel_for(0, packed.kb_ * packed.nb_, params.p,
                      [&](index_t lo, index_t hi) {
        for (index_t slot = lo; slot < hi; ++slot) {
            const index_t k0 = (slot / packed.nb_) * params.k_blk;
            const index_t n0 = (slot % packed.nb_) * params.n_blk;
            const index_t ki = std::min(params.k_blk, k - k0);
            const index_t ni = std::min(params.n_blk, n - n0);
            T* dst = packed.data_.data()
                + static_cast<std::size_t>(slot) * packed.stride_;
            if (tb) {
                Tr::pack_b_transposed(b + n0 * ldb + k0, ldb, ki, ni, nr,
                                      dst);
            } else {
                Tr::pack_b(b + k0 * ldb + n0, ldb, ki, ni, nr, dst);
            }
        }
    });
    packed.verify_canaries();
    return packed;
}

// ---------------------------------------------------------------------------
// The team interpreter: one persistent team walks the lowered phase list.
// Phases are separated by spin barriers; inside a phase, work items (pack
// sliver groups, flush/zero row groups, mr compute bands) are claimed off
// an atomic counter so edge blocks never leave cores idle. At lookahead 1
// the main phases carry block t+1's pack items next to block t's compute
// items, into the other half of the double-buffered panels — packing IO
// runs concurrently with compute instead of on the critical path (paper
// §2, Fig. 7).
// ---------------------------------------------------------------------------
template <typename T>
void CbExecutor<T>::run(ThreadPool& pool, const CbCall<T>& call,
                        CbWorkspace<T>& ws, CakeStats& stats,
                        const Timer& total)
{
    using Tr = CbTraits<T>;
    using A = typename Tr::A;
    using B = typename Tr::B;
    using C = typename Tr::C;
    const CbBlockParams& params = call.params;
    const int p = params.p;
    const typename Tr::Kernel kernel = call.kernel;
    const index_t mr = kernel.mr;
    const index_t nr = kernel.nr;
    const bool use_prepacked = call.prepacked != nullptr;

    // Plan and lower (src/core/block_plan.cpp). Surface sharing, pack-slot
    // assignment, flush bookkeeping and the modelled DRAM traffic are pure
    // functions of the schedule; the team below only claims and executes
    // the work items of the lowered phases.
    const LoweredPlan lowered = lower_multiply(
        {.params = params, .operand_bytes = sizeof(A), .m = call.m,
         .n = call.n, .k = call.k, .ldc = call.ldc,
         .use_prepacked = use_prepacked, .beta_nonzero = call.beta != C(0)},
        call.schedule, call.lookahead);
    const BlockPlan& plan = lowered.plan;
    const std::vector<PlanPhase>& phases = lowered.phases;
    stats.params = params;
    stats.grid_mb = ceil_div(call.m, params.m_blk);
    stats.grid_nb = ceil_div(call.n, params.n_blk);
    stats.grid_kb = ceil_div(call.k, params.k_blk);
    stats.blocks_executed = plan.stats.blocks_executed;
    stats.a_packs = plan.stats.a_packs;
    stats.b_packs = plan.stats.b_packs;
    stats.c_flushes = plan.stats.c_flushes;
    stats.c_partial_spills = plan.stats.c_partial_spills;
    stats.dram_read_bytes = plan.stats.dram_read_bytes;
    stats.dram_write_bytes = plan.stats.dram_write_bytes;

    const int halves = call.lookahead == 1 ? 2 : 1;
    for (int h = 0; h < halves; ++h) {
        ws.pack_a[h].ensure(static_cast<std::size_t>(
            round_up(params.m_blk, mr) * Tr::packed_k(params.k_blk)));
        if (!use_prepacked) {
            ws.pack_b[h].ensure(static_cast<std::size_t>(
                Tr::packed_k(params.k_blk) * round_up(params.n_blk, nr)));
        }
    }
    ws.c_block.ensure(static_cast<std::size_t>(params.m_blk)
                      * static_cast<std::size_t>(params.n_blk));
    if (ws.scratch.size() < static_cast<std::size_t>(p)) {
        ws.scratch.resize(static_cast<std::size_t>(p));
    }
    for (auto& s : ws.scratch) {
        s.ensure(static_cast<std::size_t>(mr * nr));
    }

    C* const cb = ws.c_block.data();
    A* const pa_slots[2] = {ws.pack_a[0].data(), ws.pack_a[1].data()};
    B* const pb_slots[2] = {ws.pack_b[0].data(), ws.pack_b[1].data()};
    // Capacities for the CAKE_CHECKED extent checks in the work items
    // below (both halves of each double buffer are allocated equal).
    const std::size_t pa_cap = ws.pack_a[0].size();
    const std::size_t pb_cap = use_prepacked
        ? call.prepacked->panel_stride()
        : ws.pack_b[0].size();
    const std::size_t cb_cap = ws.c_block.size();
    const std::size_t user_c_cap =
        static_cast<std::size_t>((call.m - 1) * call.ldc + call.n);

    // CAKE_RACECHECK shadow regions. Each double-buffer half is its own
    // region, so the intended pack(i+1)/compute(i) overlap on *opposite*
    // halves stays silent while any same-half access pair without a
    // barrier edge between its phases traps. The local C surface is tiled
    // at row x nr-sliver granularity because flush/zero row groups
    // (kRowGroup) are not mr-aligned. All of this compiles to nothing in
    // non-racecheck builds.
    const index_t c_cols = ceil_div(params.n_blk, nr);
    ScopedRegion rc_pa0(racecheck::region_register(
        "packed-A half 0", ceil_div(params.m_blk, mr)));
    ScopedRegion rc_pa1(racecheck::region_register(
        "packed-A half 1", ceil_div(params.m_blk, mr)));
    ScopedRegion rc_pb0(racecheck::region_register(
        "packed-B half 0", ceil_div(params.n_blk, nr)));
    ScopedRegion rc_pb1(racecheck::region_register(
        "packed-B half 1", ceil_div(params.n_blk, nr)));
    ScopedRegion rc_c(racecheck::region_register(
        "local C surface", params.m_blk * c_cols, c_cols));
    const racecheck::RegionId rc_pa_ids[2] = {rc_pa0.id, rc_pa1.id};
    const racecheck::RegionId rc_pb_ids[2] = {rc_pb0.id, rc_pb1.id};

    // Phase work counters, double-buffered by phase parity: while phase q
    // drains counters[q & 1], worker 0 resets the other one (dead since
    // the barrier that ended phase q-1) for phase q+1.
    std::atomic<index_t> counters[2] = {};
    // Per-worker busy seconds; `hidden` is co-issued packing.
    struct Busy {
        double pack = 0, compute = 0, flush = 0, hidden = 0;
    };
    std::vector<Busy> busy(static_cast<std::size_t>(p));

    Timer team_timer;
    pool.run_team(p, [&](TeamContext& team, int tid) {
        using Clock = std::chrono::steady_clock;
        Busy mine;  // local: workers' slots share cache lines
        long phase = 0;
        C* const scratch = ws.scratch[static_cast<std::size_t>(tid)].data();

        // Claim items off the phase counter until exhausted, then cross
        // the phase barrier. Item errors are recorded (not thrown) so
        // every worker keeps reaching the same barriers; once an error is
        // recorded all remaining items drain as no-ops.
        auto run_phase = [&](index_t n_items, auto&& body) {
            std::atomic<index_t>& counter = counters[phase & 1];
            for (;;) {
                schedshake::interleave_point(
                    schedshake::Point::kPhaseClaim);
                const index_t item =
                    counter.fetch_add(1, std::memory_order_relaxed);
                if (item >= n_items) break;
                if (team.has_error()) continue;
                try {
                    body(item);
                } catch (...) {
                    team.record_error(std::current_exception());
                }
            }
            if (tid == 0) {
                counters[(phase + 1) & 1].store(0,
                                                std::memory_order_relaxed);
            }
            team.barrier();
            ++phase;
        };
        // Each work item is timed ONCE with a shared Clock::now() pair that
        // feeds both the phase stats and the emitted trace span, so the
        // per-worker span totals and CakeStats phase seconds agree exactly
        // (a second clock pair would skew short flush/zero items by its own
        // cost). The obs push happens after the end reading — ring costs
        // stay outside both measurements.
        const bool tracing = obs::enabled();
        auto timed_item = [&](const char* span_name, obs::Phase obs_phase,
                              const BlockStep& st, index_t item, auto&& body) {
            // Counter reads bracket the clock pair so the perf syscalls
            // never contaminate the phase seconds or the span duration.
            obs::perf::ScopedPhaseDelta perf_scope(obs_phase);
            const auto t0 = Clock::now();
            body();
            const auto t1 = Clock::now();
            if (tracing) {
                obs::emit_span(span_name, obs_phase, obs::to_trace_ns(t0),
                               obs::to_trace_ns(t1), st.coord.m, st.coord.n,
                               st.coord.k, item);
            }
            return std::chrono::duration<double>(t1 - t0).count();
        };

        // One group of mr slivers of step st's A surface into its half.
        auto pack_a_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kPackItem);
            const index_t kp = Tr::packed_k(st.ki);
            const auto [s_begin, s_end] =
                item_range(item, kPackAGroup, ceil_div(st.mi, mr));
            racecheck::region_access_range(
                rc_pa_ids[st.a_slot], s_begin, s_end,
                racecheck::AccessKind::kWrite,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kPack});
            for (index_t s = s_begin; s < s_end; ++s) {
                const index_t r0 = s * mr;
                const index_t rows = std::min(mr, st.mi - r0);
                require_extent(r0 * kp, mr * kp, pa_cap,
                               "packed-A sliver");
                A* dst = pa_slots[st.a_slot] + r0 * kp;
                if (call.ta) {
                    Tr::pack_a_transposed(call.a + st.k0 * call.lda
                                              + (st.m0 + r0),
                                          call.lda, rows, st.ki, mr, dst);
                } else {
                    Tr::pack_a(call.a + (st.m0 + r0) * call.lda + st.k0,
                               call.lda, rows, st.ki, mr, dst);
                }
            }
        };
        // One group of nr slivers of step st's B surface into its half.
        auto pack_b_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kPackItem);
            const index_t kp = Tr::packed_k(st.ki);
            const auto [s_begin, s_end] =
                item_range(item, kPackBGroup, ceil_div(st.ni, nr));
            racecheck::region_access_range(
                rc_pb_ids[st.b_slot], s_begin, s_end,
                racecheck::AccessKind::kWrite,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kPack});
            for (index_t s = s_begin; s < s_end; ++s) {
                const index_t c0 = s * nr;
                const index_t cols = std::min(nr, st.ni - c0);
                require_extent(c0 * kp, nr * kp, pb_cap, "packed-B sliver");
                B* dst = pb_slots[st.b_slot] + c0 * kp;
                if (call.tb) {
                    Tr::pack_b_transposed(call.b + (st.n0 + c0) * call.ldb
                                              + st.k0,
                                          call.ldb, st.ki, cols, nr, dst);
                } else {
                    Tr::pack_b(call.b + st.k0 * call.ldb + (st.n0 + c0),
                               call.ldb, st.ki, cols, nr, dst);
                }
            }
        };
        // One mr row band of step st's block computation.
        auto compute_item = [&](const BlockStep& st, const B* pb,
                                index_t band) {
            const bool obs_tiles = obs::metrics_enabled();
            schedshake::interleave_point(schedshake::Point::kComputeItem);
            const index_t kp = Tr::packed_k(st.ki);
            const index_t r = band * mr;
            const index_t mrows = std::min(mr, st.mi - r);
            {
                const racecheck::AccessSite site{st.step, st.coord.m,
                                                 st.coord.n, st.coord.k,
                                                 racecheck::Phase::kCompute};
                racecheck::region_access(rc_pa_ids[st.a_slot], band,
                                         racecheck::AccessKind::kRead, site);
                if (!use_prepacked) {
                    racecheck::region_access_range(
                        rc_pb_ids[st.b_slot], 0, ceil_div(st.ni, nr),
                        racecheck::AccessKind::kRead, site);
                }
                racecheck::region_access_block(
                    rc_c.id, r, r + mrows, 0, ceil_div(st.ni, nr),
                    racecheck::AccessKind::kWrite, site);
            }
            require_extent(r * kp, mr * kp, pa_cap, "compute A sliver");
            const A* a_sliver = pa_slots[st.a_slot] + r * kp;
            for (index_t j = 0; j < st.ni; j += nr) {
                const index_t ncols = std::min(nr, st.ni - j);
                require_extent(j * kp, nr * kp, pb_cap, "compute B sliver");
                require_extent(r * st.ni + j, (mrows - 1) * st.ni + ncols,
                               cb_cap, "compute C tile");
                const std::uint64_t tile_t0 =
                    obs_tiles ? obs::now_ns() : 0;
                Tr::tile(kernel, st.ki, a_sliver, pb + j * kp,
                         cb + r * st.ni + j, st.ni, mrows, ncols, scratch);
                if (obs_tiles) {
                    obs::histogram_observe(
                        tile_latency_hist(),
                        static_cast<double>(obs::now_ns() - tile_t0));
                }
            }
        };
        // One group of rows of a departing column's writeback to user C.
        auto flush_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kFlushItem);
            const auto [r0, r1] = item_range(item, kRowGroup, st.flush_mi);
            racecheck::region_access_block(
                rc_c.id, r0, r1, 0, ceil_div(st.flush_ni, nr),
                racecheck::AccessKind::kRead,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kFlush});
            require_extent(r0 * st.flush_ni, (r1 - r0) * st.flush_ni,
                           cb_cap, "flush source rows");
            require_extent(st.flush_dst + r0 * call.ldc,
                           (r1 - r0 - 1) * call.ldc + st.flush_ni,
                           user_c_cap, "flush into user C");
            Tr::flush(cb + r0 * st.flush_ni, r1 - r0, st.flush_ni,
                      call.c + st.flush_dst + r0 * call.ldc, call.ldc,
                      call.alpha, call.beta, st.flush_revisit);
        };
        // One group of rows of the fresh local C surface zeroed for a new
        // column.
        auto zero_item = [&](const BlockStep& st, index_t item) {
            schedshake::interleave_point(schedshake::Point::kFlushItem);
            const auto [r0, r1] = item_range(item, kRowGroup, st.mi);
            racecheck::region_access_block(
                rc_c.id, r0, r1, 0, ceil_div(st.ni, nr),
                racecheck::AccessKind::kWrite,
                {st.step, st.coord.m, st.coord.n, st.coord.k,
                 racecheck::Phase::kFlush});
            require_extent(r0 * st.ni, (r1 - r0) * st.ni, cb_cap,
                           "zero rows");
            std::memset(cb + r0 * st.ni, 0,
                        static_cast<std::size_t>((r1 - r0) * st.ni)
                            * sizeof(C));
        };

        for (const PlanPhase& ph : phases) {
            const BlockStep& st = plan_step(plan, ph.step);
            const BlockStep& pk = ph.pack_step >= 0
                ? plan.steps[static_cast<std::size_t>(ph.pack_step)]
                : st;
            const B* pb = nullptr;
            if (ph.compute > 0) {
                pb = use_prepacked
                    ? call.prepacked->panel(st.coord.k, st.coord.n)
                    : pb_slots[st.b_slot];
            }
            // Pack items in a phase that also carries compute items are
            // co-issued: the pipeline kept that fetch off the critical
            // path (it overlaps with compute whenever spare hardware
            // threads exist).
            auto pack_time = [&](double d) {
                mine.pack += d;
                if (ph.compute > 0) mine.hidden += d;
            };
            run_phase(ph.items(), [&](index_t item) {
                if (item < ph.pack_a) {
                    pack_time(timed_item("pack.A", obs::Phase::kPack, pk,
                                         item,
                                         [&] { pack_a_item(pk, item); }));
                    return;
                }
                item -= ph.pack_a;
                if (item < ph.pack_b) {
                    pack_time(timed_item("pack.B", obs::Phase::kPack, pk,
                                         item,
                                         [&] { pack_b_item(pk, item); }));
                    return;
                }
                item -= ph.pack_b;
                if (item < ph.flush) {
                    mine.flush +=
                        timed_item("flush.write", obs::Phase::kFlush, st,
                                   item, [&] { flush_item(st, item); });
                    return;
                }
                item -= ph.flush;
                if (item < ph.zero) {
                    mine.flush +=
                        timed_item("flush.zero", obs::Phase::kFlush, st,
                                   item, [&] { zero_item(st, item); });
                    return;
                }
                item -= ph.zero;
                mine.compute +=
                    timed_item("compute", obs::Phase::kCompute, st, item,
                               [&] { compute_item(st, pb, item); });
            });
        }

        busy[static_cast<std::size_t>(tid)] = mine;
    });
    const double team_wall = team_timer.seconds();

    // CAKE_CHECKED: the multiply is flushed — every packed surface's
    // front/back canaries must still be intact, or some strided write ran
    // outside its panel. No-ops in release builds.
    ws.pack_a[0].verify_canaries("packed-A buffer[0]");
    ws.pack_a[1].verify_canaries("packed-A buffer[1]");
    ws.pack_b[0].verify_canaries("packed-B buffer[0]");
    ws.pack_b[1].verify_canaries("packed-B buffer[1]");
    ws.c_block.verify_canaries("local C surface");
    for (const auto& s : ws.scratch) s.verify_canaries("kernel scratch tile");
    if (use_prepacked) call.prepacked->verify_canaries();

    // Phases overlap, so each is aggregate per-worker busy time divided
    // by p (summing phase timers around overlapped sections would
    // double-count wall time).
    Busy sum;
    for (const Busy& w : busy) {
        sum.pack += w.pack;
        sum.compute += w.compute;
        sum.flush += w.flush;
        sum.hidden += w.hidden;
    }
    stats.pack_seconds = sum.pack / p;
    stats.compute_seconds = sum.compute / p;
    stats.flush_seconds = sum.flush / p;
    stats.stall_seconds =
        std::max(0.0, team_wall - (sum.pack + sum.compute + sum.flush) / p);
    stats.overlap_efficiency = sum.pack > 0 ? sum.hidden / sum.pack : 0.0;
    stats.pipelined = call.lookahead == 1;
    stats.total_seconds = total.seconds();
    publish_cake_stats(stats);
}

template struct CbExecutor<float>;
template struct CbExecutor<double>;
template struct CbExecutor<std::int8_t>;

}  // namespace cake
