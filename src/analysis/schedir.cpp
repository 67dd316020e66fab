#include "analysis/schedir.hpp"

#include <algorithm>
#include <utility>

#include "common/error.hpp"
#include "core/block_plan.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace schedir {

const char* exec_name(Exec exec)
{
    switch (exec) {
    case Exec::kSerial: return "serial";
    case Exec::kPipelined: return "pipelined";
    case Exec::kGoto: return "goto";
    }
    return "?";
}

const char* op_kind_name(OpKind kind)
{
    switch (kind) {
    case OpKind::kPackA: return "packA";
    case OpKind::kPackB: return "packB";
    case OpKind::kStreamB: return "streamB";
    case OpKind::kZeroC: return "zeroC";
    case OpKind::kCompute: return "compute";
    case OpKind::kFlush: return "flush";
    }
    return "?";
}

const char* mutation_name(Mutation m)
{
    switch (m) {
    case Mutation::kDropOp: return "drop-op";
    case Mutation::kDupOp: return "dup-op";
    case Mutation::kReorderAccum: return "reorder-accum";
    case Mutation::kSeverZeroBarrier: return "sever-zero-barrier";
    case Mutation::kSeverFlushBarrier: return "sever-flush-barrier";
    case Mutation::kShrinkGeneration: return "shrink-generation";
    case Mutation::kDropFlush: return "drop-flush";
    }
    return "?";
}

namespace {

/// CAKE buffer indices (extract_cake_ir's layout).
constexpr int kBufUserA = 0;
constexpr int kBufUserB = 1;
constexpr int kBufUserC = 2;
constexpr int kBufPackA = 3;
constexpr int kBufPackB = 4;
constexpr int kBufAccC = 5;

/// One ThreadPool::parallel_for worker chunk, mirroring the runtime's
/// contiguous split (thread_pool.cpp): width = min(p, total), chunk =
/// ceil(total / width), worker tid owns [tid*chunk, min(total, +chunk)).
struct Chunk {
    int tid = 0;
    index_t lo = 0, hi = 0;
};

std::vector<Chunk> parallel_chunks(index_t total, int p)
{
    std::vector<Chunk> chunks;
    if (total <= 0) return chunks;
    const auto width =
        static_cast<int>(std::min<index_t>(p, std::max<index_t>(total, 1)));
    const index_t chunk = ceil_div(total, width);
    for (int tid = 0; tid < width; ++tid) {
        const index_t lo = tid * chunk;
        const index_t hi = std::min(total, lo + chunk);
        if (lo < hi) chunks.push_back({tid, lo, hi});
    }
    return chunks;
}

/// Builds phases/ops/barriers in emission order. A barrier boundary is
/// recorded between every pair of consecutive phases, labelled by the
/// transition it enforces (mutations look boundaries up by label).
struct IrBuilder {
    ScheduleIR ir;
    bool phase_open = false;

    void next_phase(const char* boundary_label)
    {
        if (phase_open) {
            ir.barrier_intact.push_back(1);
            ir.barrier_label.emplace_back(boundary_label);
            ++ir.num_phases;
        } else {
            phase_open = true;
            ir.num_phases = 1;
        }
    }

    TileOp& add_op(OpKind kind, index_t step, const BlockCoord& block,
                   int worker, index_t seq = 0)
    {
        TileOp op;
        op.kind = kind;
        op.phase = ir.num_phases - 1;
        op.step = step;
        op.block = block;
        op.worker = worker;
        op.seq = seq;
        ir.ops.push_back(std::move(op));
        return ir.ops.back();
    }
};

TileSpan make_span(int buffer, int slot, index_t gen, Access access,
                   index_t r0, index_t r1, index_t c0, index_t c1,
                   bool creates = false, bool closes = false)
{
    TileSpan s;
    s.buffer = buffer;
    s.slot = slot;
    s.gen = gen;
    s.access = access;
    s.r0 = r0;
    s.r1 = r1;
    s.c0 = c0;
    s.c1 = c1;
    s.creates_gen = creates;
    s.closes_gen = closes;
    return s;
}

}  // namespace

ScheduleIR extract_cake_ir(const GemmShape& shape,
                           const CbBlockParams& params, ScheduleKind kind,
                           Exec exec, bool use_prepacked, bool beta_nonzero)
{
    CAKE_CHECK_MSG(exec != Exec::kGoto,
                   "extract_cake_ir handles serial/pipelined only");
    CAKE_CHECK(shape.m >= 1 && shape.n >= 1 && shape.k >= 1);
    const int lookahead = exec == Exec::kPipelined ? 1 : 0;
    const index_t mr = params.mr;
    const index_t nr = params.nr;
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);

    IrBuilder b;
    ScheduleIR& ir = b.ir;
    ir.exec = exec;
    ir.schedule = kind;
    ir.shape = shape;
    ir.params = params;
    ir.p = params.p;
    ir.mb = ceil_div(shape.m, params.m_blk);
    ir.nb = ceil_div(shape.n, params.n_blk);
    ir.kb = ceil_div(shape.k, params.k_blk);
    ir.elem_bytes = params.elem_bytes;
    ir.n_outermost = shape.n >= shape.m;
    ir.use_prepacked = use_prepacked;
    ir.beta_nonzero = beta_nonzero;
    ir.expected_accums = ir.kb;

    // The SAME order, plan and phase list the CB executor runs
    // (core/block_plan.cpp, core/cb_executor.cpp).
    const LoweredPlan lowered = lower_multiply(
        {.params = params, .m = shape.m, .n = shape.n, .k = shape.k,
         .ldc = shape.n, .use_prepacked = use_prepacked,
         .beta_nonzero = beta_nonzero},
        kind, lookahead);
    const BlockPlan& plan = lowered.plan;
    ir.order = lowered.order;

    const int pack_slots = lookahead == 1 ? 2 : 1;
    ir.buffers = {
        {"user A", BufKind::kUserA, 1},
        {"user B", BufKind::kUserB, 1},
        {"user C", BufKind::kUserC, 1},
        {"packed A", BufKind::kPackA, pack_slots},
        {"packed B", BufKind::kPackB, pack_slots},
        {"local C", BufKind::kAccC, 1},
    };

    // --- one op emitter per item kind; every op is dynamically claimed
    // by the team (worker = -1), exactly like the executor's work items.
    // Pack one item's mr slivers of step st's A surface (sliver-indexed
    // rows of the packed-A panel; element rows of user A).
    auto emit_pack_a = [&](const BlockStep& st, index_t item) {
        const auto [s0, s1] =
            item_range(item, kPackAGroup, ceil_div(st.mi, mr));
        const index_t r0 = s0 * mr;
        const index_t r1 = std::min(st.mi, s1 * mr);
        TileOp& op = b.add_op(OpKind::kPackA, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufUserA, 0, 0, Access::kRead,
                                     st.m0 + r0, st.m0 + r1, st.k0,
                                     st.k0 + st.ki));
        op.spans.push_back(make_span(
            kBufPackA, st.a_slot, st.a_gen,
            Access::kWrite, s0, s1, 0, 1, /*creates=*/true));
        op.dram_read_bytes = static_cast<std::uint64_t>(r1 - r0)
            * static_cast<std::uint64_t>(st.ki) * elem;
    };
    auto emit_pack_b = [&](const BlockStep& st, index_t item) {
        const auto [s0, s1] =
            item_range(item, kPackBGroup, ceil_div(st.ni, nr));
        const index_t c0 = s0 * nr;
        const index_t c1 = std::min(st.ni, s1 * nr);
        TileOp& op = b.add_op(OpKind::kPackB, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufUserB, 0, 0, Access::kRead, st.k0,
                                     st.k0 + st.ki, st.n0 + c0, st.n0 + c1));
        op.spans.push_back(make_span(
            kBufPackB, st.b_slot, st.b_gen,
            Access::kWrite, s0, s1, 0, 1, /*creates=*/true));
        op.dram_read_bytes = static_cast<std::uint64_t>(c1 - c0)
            * static_cast<std::uint64_t>(st.ki) * elem;
    };
    // Prepacked B: no pack work, but the panel still streams from
    // external memory once per fresh surface.
    auto emit_stream_b = [&](const BlockStep& st) {
        TileOp& op = b.add_op(OpKind::kStreamB, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufUserB, 0, 0, Access::kRead, st.k0,
                                     st.k0 + st.ki, st.n0,
                                     st.n0 + st.ni));
        op.dram_read_bytes = static_cast<std::uint64_t>(st.ki)
            * static_cast<std::uint64_t>(st.ni) * elem;
    };
    // One row group of the departing column recorded in `fl`'s flush_*
    // fields, written back to user C.
    auto emit_flush = [&](const BlockStep& fl, index_t item) {
        const auto [r0, r1] = item_range(item, kRowGroup, fl.flush_mi);
        const bool rmw = fl.flush_revisit || beta_nonzero;
        const index_t um0 = fl.flush_coord.m * params.m_blk;
        const index_t un0 = fl.flush_coord.n * params.n_blk;
        TileOp& op = b.add_op(OpKind::kFlush, fl.step, fl.flush_coord, -1);
        op.spans.push_back(make_span(
            kBufAccC, 0, fl.flush_gen, Access::kRead, r0, r1, 0,
            ceil_div(fl.flush_ni, nr), /*creates=*/false, /*closes=*/true));
        op.spans.push_back(make_span(
            kBufUserC, 0, 0, rmw ? Access::kReadWrite : Access::kWrite,
            um0 + r0, um0 + r1, un0, un0 + fl.flush_ni));
        const auto bytes = static_cast<std::uint64_t>(r1 - r0)
            * static_cast<std::uint64_t>(fl.flush_ni) * elem;
        op.dram_write_bytes = bytes;
        if (rmw) op.dram_read_bytes = bytes;
    };
    // One row group of the fresh local C surface; the first op of a
    // reloaded column carries the spilled-partial refetch bytes.
    auto emit_zero = [&](const BlockStep& st, index_t item) {
        const auto [r0, r1] = item_range(item, kRowGroup, st.mi);
        TileOp& op = b.add_op(OpKind::kZeroC, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufAccC, 0, st.c_gen, Access::kWrite,
                                     r0, r1, 0, ceil_div(st.ni, nr),
                                     /*creates=*/true));
        if (item == 0 && st.reload) {
            op.dram_read_bytes = static_cast<std::uint64_t>(st.mi)
                * static_cast<std::uint64_t>(st.ni) * elem;
        }
    };
    // One mr compute band: reads the packed surfaces, RMWs the local
    // accumulator.
    auto emit_compute = [&](const BlockStep& st, index_t band) {
        const index_t r0 = band * mr;
        const index_t r1 = std::min(st.mi, r0 + mr);
        TileOp& op = b.add_op(OpKind::kCompute, st.step, st.coord, -1);
        op.spans.push_back(make_span(
            kBufPackA, st.a_slot, st.a_gen,
            Access::kRead, band, band + 1, 0, 1));
        if (!use_prepacked) {
            op.spans.push_back(make_span(
                kBufPackB, st.b_slot, st.b_gen, Access::kRead, 0,
                ceil_div(st.ni, nr), 0, 1));
        }
        op.spans.push_back(make_span(kBufAccC, 0, st.c_gen,
                                     Access::kReadWrite, r0, r1, 0,
                                     ceil_div(st.ni, nr)));
    };

    for (const PlanPhase& ph : lowered.phases) {
        b.next_phase(ph.label);
        const BlockStep& st = plan_step(plan, ph.step);
        for (index_t i = 0; i < ph.pack_a; ++i) {
            emit_pack_a(plan_step(plan, ph.pack_step), i);
        }
        for (index_t i = 0; i < ph.pack_b; ++i) {
            emit_pack_b(plan_step(plan, ph.pack_step), i);
        }
        for (index_t i = 0; i < ph.flush; ++i) emit_flush(st, i);
        for (index_t i = 0; i < ph.zero; ++i) emit_zero(st, i);
        if (ph.compute > 0 && use_prepacked && st.b_fresh) emit_stream_b(st);
        for (index_t i = 0; i < ph.compute; ++i) emit_compute(st, i);
    }
    return std::move(b.ir);
}

ScheduleIR extract_goto_ir(const GemmShape& shape,
                           const GotoBlocking& blocking, int p, index_t mr,
                           index_t nr, bool accumulate, index_t elem_bytes)
{
    CAKE_CHECK(shape.m >= 1 && shape.n >= 1 && shape.k >= 1);
    CAKE_CHECK(p >= 1 && mr >= 1 && nr >= 1);
    CAKE_CHECK(elem_bytes >= 1);
    const index_t mc = blocking.mc;
    const index_t kc = blocking.kc;
    const index_t nc = blocking.nc;
    const auto elem = static_cast<std::uint64_t>(elem_bytes);

    IrBuilder b;
    ScheduleIR& ir = b.ir;
    ir.exec = Exec::kGoto;
    ir.shape = shape;
    ir.blocking = blocking;
    ir.p = p;
    ir.params.mr = mr;  // kernel shape, for the memsim cross-check
    ir.params.nr = nr;
    ir.params.elem_bytes = elem_bytes;  // keep the dtype fields consistent
    ir.elem_bytes = elem_bytes;
    ir.beta_nonzero = accumulate;
    ir.expected_accums = ceil_div(shape.k, kc);
    ir.buffers = {
        {"user A", BufKind::kUserA, 1},
        {"user B", BufKind::kUserB, 1},
        {"user C", BufKind::kUserC, 1},
        {"packed A (per-core)", BufKind::kPackA, p},
        {"packed B", BufKind::kPackB, 1},
    };

    // Per-slot (= per-core) A generation counters; one B generation per
    // (jc, pc) pass.
    std::vector<index_t> a_gen(static_cast<std::size_t>(p), -1);
    index_t b_gen = -1;
    index_t pass_idx = 0;

    // The SAME pass list GotoGemmT::multiply iterates.
    for (const GotoPass& pass :
         build_goto_passes(shape.n, shape.k, nc, kc, accumulate)) {
        const BlockCoord pc_coord{-1, pass.jc / nc, pass.pc / kc};
        ++b_gen;
        b.next_phase(pass_idx == 0 ? "start" : "pass");
        for (const Chunk& c : parallel_chunks(ceil_div(pass.ncur, nr), p)) {
            const index_t c0 = c.lo * nr;
            const index_t c1 = std::min(pass.ncur, c.hi * nr);
            TileOp& op =
                b.add_op(OpKind::kPackB, pass_idx, pc_coord, c.tid);
            op.spans.push_back(make_span(
                kBufUserB, 0, 0, Access::kRead, pass.pc,
                pass.pc + pass.kcur, pass.jc + c0, pass.jc + c1));
            op.spans.push_back(make_span(kBufPackB, 0, b_gen,
                                         Access::kWrite, c.lo, c.hi, 0, 1,
                                         /*creates=*/true));
            op.dram_read_bytes = static_cast<std::uint64_t>(c1 - c0)
                * static_cast<std::uint64_t>(pass.kcur) * elem;
        }

        b.next_phase("packB->compute");
        for (int tid = 0; tid < p; ++tid) {
            index_t seq = 0;
            for (index_t ic = tid * mc; ic < shape.m;
                 ic += static_cast<index_t>(p) * mc) {
                const index_t mcur = std::min(mc, shape.m - ic);
                BlockCoord blk = pc_coord;
                blk.m = ic / mc;
                ++a_gen[static_cast<std::size_t>(tid)];
                const index_t ag = a_gen[static_cast<std::size_t>(tid)];
                {
                    TileOp& op =
                        b.add_op(OpKind::kPackA, pass_idx, blk, tid, seq++);
                    op.spans.push_back(make_span(
                        kBufUserA, 0, 0, Access::kRead, ic, ic + mcur,
                        pass.pc, pass.pc + pass.kcur));
                    op.spans.push_back(make_span(
                        kBufPackA, tid, ag, Access::kWrite, 0,
                        ceil_div(mcur, mr), 0, 1, /*creates=*/true));
                    op.dram_read_bytes = static_cast<std::uint64_t>(mcur)
                        * static_cast<std::uint64_t>(pass.kcur) * elem;
                }
                {
                    TileOp& op = b.add_op(OpKind::kCompute, pass_idx, blk,
                                          tid, seq++);
                    op.spans.push_back(make_span(kBufPackA, tid, ag,
                                                 Access::kRead, 0,
                                                 ceil_div(mcur, mr), 0, 1));
                    op.spans.push_back(make_span(
                        kBufPackB, 0, b_gen, Access::kRead, 0,
                        ceil_div(pass.ncur, nr), 0, 1));
                    // GOTO streams partial C straight to user memory:
                    // a plain write on the first reduction pass, RMW on
                    // every later one.
                    op.spans.push_back(make_span(
                        kBufUserC, 0, 0,
                        pass.acc ? Access::kReadWrite : Access::kWrite, ic,
                        ic + mcur, pass.jc, pass.jc + pass.ncur));
                    const auto c_bytes = static_cast<std::uint64_t>(mcur)
                        * static_cast<std::uint64_t>(pass.ncur) * elem;
                    op.dram_write_bytes = c_bytes;
                    if (pass.acc) op.dram_read_bytes = c_bytes;
                }
            }
        }
        ++pass_idx;
    }
    return std::move(b.ir);
}

IoTotals io_totals(const ScheduleIR& ir)
{
    IoTotals t;
    for (const TileOp& op : ir.ops) {
        switch (op.kind) {
        case OpKind::kPackA:
            t.a_read += op.dram_read_bytes;
            break;
        case OpKind::kPackB:
        case OpKind::kStreamB:
            t.b_read += op.dram_read_bytes;
            break;
        case OpKind::kZeroC:
            t.c_reload_read += op.dram_read_bytes;
            break;
        case OpKind::kCompute:
        case OpKind::kFlush:
            t.c_write += op.dram_write_bytes;
            t.c_rmw_read += op.dram_read_bytes;
            break;
        }
    }
    return t;
}

std::string apply_mutation(ScheduleIR& ir, Mutation m)
{
    auto find_op = [&](OpKind kind) -> std::size_t {
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            if (ir.ops[i].kind == kind) return i;
        }
        throw Error(std::string("apply_mutation: no ")
                        + op_kind_name(kind) + " op in this IR");
    };
    auto sever_boundary = [&](const char* label) {
        for (std::size_t i = 0; i < ir.barrier_label.size(); ++i) {
            if (ir.barrier_label[i] == label) {
                ir.barrier_intact[i] = 0;
                return;
            }
        }
        throw Error(std::string("apply_mutation: IR has no '") + label
                        + "' boundary");
    };

    switch (m) {
    case Mutation::kDropOp: {
        // Lose one accumulation: the affected C elements fall short.
        const std::size_t i = find_op(OpKind::kCompute);
        ir.ops.erase(ir.ops.begin() + static_cast<std::ptrdiff_t>(i));
        return "IR_COVER";
    }
    case Mutation::kDupOp: {
        // Apply one accumulation twice.
        const std::size_t i = find_op(OpKind::kCompute);
        ir.ops.push_back(ir.ops[i]);
        return "IR_COVER";
    }
    case Mutation::kReorderAccum: {
        // Move an accumulation after the flush that retires its
        // generation: the closing read no longer follows every write.
        for (const TileOp& f : ir.ops) {
            if (f.kind != OpKind::kFlush || f.phase + 1 >= ir.num_phases) {
                continue;
            }
            index_t gen = -1;
            for (const TileSpan& s : f.spans) {
                if (s.closes_gen) gen = s.gen;
            }
            if (gen < 0) continue;
            for (TileOp& c : ir.ops) {
                if (c.kind != OpKind::kCompute) continue;
                for (const TileSpan& s : c.spans) {
                    if (s.buffer == kBufAccC && s.gen == gen) {
                        c.phase = f.phase + 1;
                        return "IR_ORDER";
                    }
                }
            }
        }
        throw Error(
            "apply_mutation: no mid-schedule flush to reorder past");
    }
    case Mutation::kSeverZeroBarrier:
        // Zeroing the new column races the computes accumulating into it.
        sever_boundary("zero->main");
        return "IR_RACE_WW";
    case Mutation::kSeverFlushBarrier:
        // The flush reads the surface while the last block still writes.
        sever_boundary("main->flush");
        return "IR_RACE_RW";
    case Mutation::kShrinkGeneration: {
        // Collapse the double buffers: pack(t+1) recycles the very slot
        // compute(t) is still reading.
        if (ir.exec != Exec::kPipelined) {
            throw Error(
                "apply_mutation: shrink-generation needs a pipelined IR");
        }
        bool shrunk = false;
        for (std::size_t bi = 0; bi < ir.buffers.size(); ++bi) {
            Buffer& buf = ir.buffers[bi];
            if ((buf.kind == BufKind::kPackA
                 || buf.kind == BufKind::kPackB)
                && buf.slots > 1) {
                buf.slots = 1;
                shrunk = true;
                for (TileOp& op : ir.ops) {
                    for (TileSpan& s : op.spans) {
                        if (s.buffer == static_cast<int>(bi)) s.slot = 0;
                    }
                }
            }
        }
        if (!shrunk) {
            throw Error(
                "apply_mutation: IR has no double-buffered pack panel");
        }
        return "IR_LIFETIME";
    }
    case Mutation::kDropFlush: {
        // Lose a writeback: the flushed elements never reach user C.
        const std::size_t i = find_op(OpKind::kFlush);
        ir.ops.erase(ir.ops.begin() + static_cast<std::ptrdiff_t>(i));
        return "IR_COVER";
    }
    }
    throw Error("apply_mutation: unknown mutation");
}

}  // namespace schedir
}  // namespace cake
