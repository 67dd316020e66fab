#include "core/block_plan.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "pack/pack.hpp"

namespace cake {

BlockPlan build_block_plan(const std::vector<BlockCoord>& order,
                           const BlockPlanInputs& in)
{
    CAKE_CHECK(!order.empty());
    CAKE_CHECK(in.m >= 1 && in.n >= 1 && in.k >= 1);
    CAKE_CHECK(in.nb >= 1 && in.kb >= 1 && in.ldc >= in.n);

    const CbBlockParams& params = in.params;
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);
    const auto operand = static_cast<std::uint64_t>(
        in.operand_bytes > 0 ? in.operand_bytes : params.elem_bytes);
    const auto steps = static_cast<index_t>(order.size());

    BlockPlan plan;
    plan.steps.resize(static_cast<std::size_t>(steps));
    BlockPlanStats& stats = plan.stats;

    // Per-(m, n) column bookkeeping, evolved in schedule order: how many K
    // blocks have accumulated, whether the column's surface already visited
    // user memory (possible only under non-K-first ablation schedules), and
    // which local-C lifetime last served it.
    std::vector<index_t> k_done;
    std::vector<char> flushed;
    {
        index_t mb_max = 0;
        for (const BlockCoord& c : order) mb_max = std::max(mb_max, c.m + 1);
        k_done.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
        flushed.assign(static_cast<std::size_t>(mb_max * in.nb), 0);
    }

    auto block_extent = [](index_t idx, index_t blk, index_t total) {
        return std::min(blk, total - idx * blk);
    };
    auto note_flush = [&](BlockStep& st, const BlockCoord& col, index_t mi,
                          index_t ni, index_t gen) {
        const std::size_t slot =
            static_cast<std::size_t>(col.m * in.nb + col.n);
        st.flush_coord = col;
        st.flush_mi = mi;
        st.flush_ni = ni;
        st.flush_dst = col.m * params.m_blk * in.ldc + col.n * params.n_blk;
        st.flush_gen = gen;
        st.flush_revisit = flushed[slot] != 0;
        st.flush_partial = k_done[slot] < in.kb;
        flushed[slot] = 1;
        ++stats.c_flushes;
        const auto bytes = static_cast<std::uint64_t>(mi)
            * static_cast<std::uint64_t>(ni) * elem;
        stats.dram_write_bytes += bytes;
        // First visit applies the caller's beta (RMW read iff beta != 0);
        // revisits must accumulate, so they always read back.
        if (st.flush_revisit || in.beta_nonzero) {
            stats.dram_read_bytes += bytes;
        }
        if (st.flush_partial) ++stats.c_partial_spills;
    };

    index_t cur_mi = 0, cur_ni = 0;
    index_t gen = -1;  // current local-C lifetime ordinal
    index_t a_gen = -1, b_gen = -1;  // packed-A / packed-B fetch ordinals
    for (index_t t = 0; t < steps; ++t) {
        BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        st.coord = order[static_cast<std::size_t>(t)];
        st.step = t;
        st.mi = block_extent(st.coord.m, params.m_blk, in.m);
        st.ni = block_extent(st.coord.n, params.n_blk, in.n);
        st.ki = block_extent(st.coord.k, params.k_blk, in.k);
        st.m0 = st.coord.m * params.m_blk;
        st.n0 = st.coord.n * params.n_blk;
        st.k0 = st.coord.k * params.k_blk;

        const BlockStep* prev =
            t == 0 ? nullptr : &plan.steps[static_cast<std::size_t>(t - 1)];
        const SurfaceSharing shared = prev == nullptr
            ? SurfaceSharing{}
            : shared_surfaces(prev->coord, st.coord);

        st.a_slot = prev != nullptr ? prev->a_slot : 0;
        st.pack_a = !shared.a;
        if (in.double_buffer && prev != nullptr && st.pack_a) {
            st.a_slot = 1 - prev->a_slot;
        }
        if (st.pack_a) {
            ++stats.a_packs;
            stats.dram_read_bytes +=
                static_cast<std::uint64_t>(st.mi) * st.ki * operand;
        }

        st.b_slot = prev != nullptr ? prev->b_slot : 0;
        st.b_fresh = !shared.b;
        if (in.use_prepacked) {
            // Weights are already in panel format: no pack work, but the
            // surface still streams DRAM -> local memory once per block.
            st.pack_b = false;
            if (st.b_fresh) {
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * operand;
            }
        } else {
            st.pack_b = st.b_fresh;
            if (in.double_buffer && prev != nullptr && st.pack_b) {
                st.b_slot = 1 - prev->b_slot;
            }
            if (st.pack_b) {
                ++stats.b_packs;
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.ki) * st.ni * operand;
            }
        }

        st.c_change = !shared.c;
        if (st.c_change) {
            ++gen;
            if (prev != nullptr) {
                note_flush(st, prev->coord, cur_mi, cur_ni, gen - 1);
            }
            const std::size_t slot =
                static_cast<std::size_t>(st.coord.m * in.nb + st.coord.n);
            st.reload = flushed[slot] != 0;
            if (st.reload) {
                // Revisiting a spilled surface: partials come back from
                // external memory (non-K-first ablation schedules only).
                stats.dram_read_bytes +=
                    static_cast<std::uint64_t>(st.mi) * st.ni * elem;
            }
            cur_mi = st.mi;
            cur_ni = st.ni;
        }
        st.c_gen = gen;
        if (st.pack_a) ++a_gen;
        if (st.pack_b) ++b_gen;
        st.a_gen = std::max<index_t>(a_gen, 0);
        st.b_gen = std::max<index_t>(b_gen, 0);
        ++k_done[static_cast<std::size_t>(st.coord.m * in.nb + st.coord.n)];
        ++stats.blocks_executed;
    }

    // Final flush of the last live column.
    const BlockStep& last = plan.steps[static_cast<std::size_t>(steps - 1)];
    plan.final_flush.coord = last.coord;
    plan.final_flush.step = steps;
    plan.final_flush.mi = last.mi;
    plan.final_flush.ni = last.ni;
    plan.final_flush.c_gen = gen;
    note_flush(plan.final_flush, last.coord, cur_mi, cur_ni, gen);
    plan.c_generations = gen + 1;
    return plan;
}

const BlockStep& plan_step(const BlockPlan& plan, index_t idx)
{
    const auto steps = static_cast<index_t>(plan.steps.size());
    CAKE_CHECK(idx >= 0 && idx <= steps);
    return idx == steps ? plan.final_flush
                        : plan.steps[static_cast<std::size_t>(idx)];
}

std::vector<PlanPhase> lower_block_plan(const BlockPlan& plan, index_t mr,
                                        index_t nr, int lookahead)
{
    CAKE_CHECK(lookahead == 0 || lookahead == 1);
    CAKE_CHECK(mr >= 1 && nr >= 1 && !plan.steps.empty());
    const auto steps = static_cast<index_t>(plan.steps.size());

    std::vector<PlanPhase> phases;
    auto open = [&](const char* label, index_t step) {
        PlanPhase ph;
        ph.label = label;
        ph.step = step;
        phases.push_back(ph);
        return &phases.back();
    };
    auto add_packs = [&](PlanPhase& ph, index_t t) {
        const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        ph.pack_step = t;
        ph.pack_a = st.pack_a ? ceil_div(ceil_div(st.mi, mr), kPackAGroup) : 0;
        ph.pack_b = st.pack_b ? ceil_div(ceil_div(st.ni, nr), kPackBGroup) : 0;
    };

    for (index_t t = 0; t < steps; ++t) {
        const BlockStep& st = plan.steps[static_cast<std::size_t>(t)];
        const char* into_main = "main->main";
        if (t == 0) {
            // Pipeline fill: pack block 0 and zero the first local C.
            PlanPhase* fill = open("fill", t);
            fill->zero = ceil_div(st.mi, kRowGroup);
            add_packs(*fill, t);
            into_main = "fill->main";
        } else if (st.c_change) {
            // Column turnover: write the departing surface back, then
            // reset the local surface. Two phases — the flush must read
            // the buffer before the zero scrubs it.
            open("main->flush", t)->flush = ceil_div(st.flush_mi, kRowGroup);
            PlanPhase* zero = open("flush->zero", t);
            zero->zero = ceil_div(st.mi, kRowGroup);
            if (lookahead == 0) add_packs(*zero, t);
            into_main = "zero->main";
        } else if (lookahead == 0 && (st.pack_a || st.pack_b)) {
            add_packs(*open("main->pack", t), t);
            into_main = "pack->main";
        }
        // Main phase. At lookahead 1 it also packs step t+1's fresh
        // surfaces into the other buffer halves; pack items come first so
        // the next block's DRAM fetch spreads over this block's compute
        // (the constant-bandwidth property, §3).
        PlanPhase* main = open(into_main, t);
        main->compute = ceil_div(st.mi, mr);
        if (lookahead == 1 && t + 1 < steps) add_packs(*main, t + 1);
    }
    open("main->drain", steps)->flush =
        ceil_div(plan.final_flush.flush_mi, kRowGroup);
    return phases;
}

LoweredPlan lower_multiply(BlockPlanInputs in, ScheduleKind kind,
                           int lookahead)
{
    const CbBlockParams& params = in.params;
    in.nb = ceil_div(in.n, params.n_blk);
    in.kb = ceil_div(in.k, params.k_blk);
    in.double_buffer = lookahead == 1;
    LoweredPlan out;
    out.order = build_schedule(kind, ceil_div(in.m, params.m_blk), in.nb,
                               in.kb, /*n_outermost=*/in.n >= in.m);
    out.plan = build_block_plan(out.order, in);
    out.phases = lower_block_plan(out.plan, params.mr, params.nr, lookahead);
    return out;
}

}  // namespace cake
