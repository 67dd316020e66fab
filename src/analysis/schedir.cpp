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
    case OpKind::kCompute: return "compute";
    }
    return "?";
}

const char* mutation_name(Mutation m)
{
    switch (m) {
    case Mutation::kDropOp: return "drop-op";
    case Mutation::kDupOp: return "dup-op";
    case Mutation::kReorderAccum: return "reorder-accum";
    case Mutation::kSeverColumnBarrier: return "sever-column-barrier";
    case Mutation::kSeverPackBarrier: return "sever-pack-barrier";
    case Mutation::kShrinkGeneration: return "shrink-generation";
    case Mutation::kDropFirstSlab: return "drop-first-slab";
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
        op.spans.reserve(3);  // no op declares more than three spans
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
                           Exec exec, bool use_prepacked, bool beta_nonzero,
                           index_t operand_bytes)
{
    CAKE_CHECK_MSG(exec != Exec::kGoto,
                   "extract_cake_ir handles serial/pipelined only");
    CAKE_CHECK(shape.m >= 1 && shape.n >= 1 && shape.k >= 1);
    const int lookahead = exec == Exec::kPipelined ? 1 : 0;
    const index_t mr = params.mr;
    const index_t nr = params.nr;
    const auto elem = static_cast<std::uint64_t>(params.elem_bytes);
    const auto operand = static_cast<std::uint64_t>(
        operand_bytes > 0 ? operand_bytes : params.elem_bytes);

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
    ir.operand_bytes = static_cast<index_t>(operand);
    ir.n_outermost = shape.n >= shape.m;
    ir.use_prepacked = use_prepacked;
    ir.beta_nonzero = beta_nonzero;
    ir.expected_accums = ir.kb;

    // The SAME order, plan and phase list the CB executor runs
    // (core/block_plan.cpp, core/cb_executor.cpp).
    const LoweredPlan lowered = lower_multiply(
        {.params = params, .operand_bytes = operand_bytes, .m = shape.m,
         .n = shape.n, .k = shape.k, .use_prepacked = use_prepacked,
         .beta_nonzero = beta_nonzero},
        kind, lookahead);
    const BlockPlan& plan = lowered.plan;
    ir.order = lowered.order;

    const int pack_slots = lookahead == 1 ? 2 : 1;
    ir.buffers = {
        {"user A", BufKind::kUserA, 1},
        {"user B", BufKind::kUserB, 1},
        {"user C", BufKind::kUserC, static_cast<int>(ir.mb * ir.nb)},
        {"packed A", BufKind::kPackA, pack_slots},
        {"packed B", BufKind::kPackB, pack_slots},
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
            * static_cast<std::uint64_t>(st.ki) * operand;
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
            * static_cast<std::uint64_t>(st.ki) * operand;
    };
    // Prepacked B: no pack work, but the panel still streams from
    // external memory once per fresh surface.
    auto emit_stream_b = [&](const BlockStep& st) {
        TileOp& op = b.add_op(OpKind::kStreamB, st.step, st.coord, -1);
        op.spans.push_back(make_span(kBufUserB, 0, 0, Access::kRead, st.k0,
                                     st.k0 + st.ki, st.n0,
                                     st.n0 + st.ni));
        op.dram_read_bytes = static_cast<std::uint64_t>(st.ki)
            * static_cast<std::uint64_t>(st.ni) * operand;
    };
    // One compute item (mr band x sliver group): reads its packed-A
    // sliver and packed-B slivers and writes its tile of the column's
    // user-C window (slot = column, generation = visit).
    // The first slab of a visit creates the generation — a plain write on
    // a column's first visit with beta == 0, a read-modify-write otherwise
    // — and the last slab closes it, carrying the visit's write-back. The
    // first slab of a revisit carries the spilled partials' reload.
    auto emit_compute = [&](const BlockStep& st, const ComputeItem& it) {
        const index_t r0 = it.band * mr;
        const index_t r1 = std::min(st.mi, r0 + mr);
        const index_t c0 = it.s_begin * nr;
        const index_t c1 = std::min(st.ni, it.s_end * nr);
        TileOp& op = b.add_op(OpKind::kCompute, st.step, st.coord, -1);
        op.spans.push_back(make_span(
            kBufPackA, st.a_slot, st.a_gen,
            Access::kRead, it.band, it.band + 1, 0, 1));
        if (!use_prepacked) {
            op.spans.push_back(make_span(
                kBufPackB, st.b_slot, st.b_gen, Access::kRead, it.s_begin,
                it.s_end, 0, 1));
        }
        const bool overwrite = st.c_change && !st.reload && !beta_nonzero;
        op.spans.push_back(make_span(
            kBufUserC, static_cast<int>(st.coord.m * ir.nb + st.coord.n),
            st.c_visit, overwrite ? Access::kWrite : Access::kReadWrite,
            st.m0 + r0, st.m0 + r1, st.n0 + c0, st.n0 + c1,
            /*creates=*/st.c_change, /*closes=*/st.c_last));
        const auto bytes = static_cast<std::uint64_t>(r1 - r0)
            * static_cast<std::uint64_t>(c1 - c0) * elem;
        if (st.reload) {
            op.dram_reload_bytes = bytes;
            op.dram_read_bytes += bytes;
        }
        if (st.c_last) {
            op.dram_write_bytes = bytes;
            if (st.c_visit > 0 || beta_nonzero) op.dram_read_bytes += bytes;
        }
    };

    const auto step_of = [&plan](index_t idx) -> const BlockStep& {
        return plan.steps[static_cast<std::size_t>(idx)];
    };
    for (const PlanPhase& ph : lowered.phases) {
        b.next_phase(ph.label);
        const BlockStep& st = step_of(ph.step);
        for (index_t i = 0; i < ph.pack_a; ++i) {
            emit_pack_a(step_of(ph.pack_step), i);
        }
        for (index_t i = 0; i < ph.pack_b; ++i) {
            emit_pack_b(step_of(ph.pack_step), i);
        }
        if (ph.bands > 0 && use_prepacked && st.b_fresh) emit_stream_b(st);
        for (index_t i = 0; i < ph.compute_items(); ++i) {
            emit_compute(st, ph.compute_item(i));
        }
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
    ir.operand_bytes = elem_bytes;
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
        case OpKind::kCompute:
            t.c_write += op.dram_write_bytes;
            t.c_reload_read += op.dram_reload_bytes;
            t.c_rmw_read += op.dram_read_bytes - op.dram_reload_bytes;
            break;
        }
    }
    return t;
}

std::string apply_mutation(ScheduleIR& ir, Mutation m)
{
    // A compute op's user-C span, or nullptr.
    auto user_c_span = [&ir](const TileOp& op) -> const TileSpan* {
        if (op.kind != OpKind::kCompute) return nullptr;
        for (const TileSpan& s : op.spans) {
            if (ir.buffers[static_cast<std::size_t>(s.buffer)].kind
                == BufKind::kUserC) {
                return &s;
            }
        }
        return nullptr;
    };
    auto same_gen = [](const TileSpan& x, const TileSpan& y) {
        return x.buffer == y.buffer && x.slot == y.slot && x.gen == y.gen;
    };
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
        // Move an earlier slab of a column visit past the visit's last
        // slab: the closing write-back no longer follows every write.
        for (const TileOp& last : ir.ops) {
            const TileSpan* closer = user_c_span(last);
            if (closer == nullptr || !closer->closes_gen
                || last.phase + 1 >= ir.num_phases) {
                continue;
            }
            for (TileOp& c : ir.ops) {
                const TileSpan* s = user_c_span(c);
                if (s != nullptr && !s->closes_gen && same_gen(*s, *closer)) {
                    c.phase = last.phase + 1;
                    return "IR_ORDER";
                }
            }
        }
        throw Error(
            "apply_mutation: no multi-slab column visit to reorder");
    }
    case Mutation::kSeverColumnBarrier: {
        // Two consecutive slabs of one column visit now both write the
        // same user-C rows with no barrier between them.
        for (const TileOp& later : ir.ops) {
            const TileSpan* s = user_c_span(later);
            if (s == nullptr || s->creates_gen) continue;
            index_t prev_phase = -1;
            for (const TileOp& c : ir.ops) {
                const TileSpan* cs = user_c_span(c);
                if (cs != nullptr && same_gen(*cs, *s)
                    && c.phase < later.phase) {
                    prev_phase = std::max(prev_phase, c.phase);
                }
            }
            if (prev_phase < 0) continue;
            for (index_t q = prev_phase; q < later.phase; ++q) {
                ir.barrier_intact[static_cast<std::size_t>(q)] = 0;
            }
            return "IR_RACE_WW";
        }
        throw Error(
            "apply_mutation: no multi-slab column visit to sever");
    }
    case Mutation::kSeverPackBarrier:
        // The first block computes from panels its fill still writes.
        sever_boundary("fill->main");
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
    case Mutation::kDropFirstSlab: {
        // Lose the first slab of a column entered at a turnover (step >
        // 0): its rows miss one accumulation and the write that discards
        // C's old contents.
        for (std::size_t i = 0; i < ir.ops.size(); ++i) {
            const TileSpan* s = user_c_span(ir.ops[i]);
            if (s != nullptr && s->creates_gen && ir.ops[i].step > 0) {
                ir.ops.erase(ir.ops.begin()
                             + static_cast<std::ptrdiff_t>(i));
                return "IR_COVER";
            }
        }
        throw Error("apply_mutation: IR has no column turnover");
    }
    }
    throw Error("apply_mutation: unknown mutation");
}

}  // namespace schedir
}  // namespace cake
