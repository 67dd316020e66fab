// Schedule-IR extraction + symbolic verification: clean IRs of every
// executor/schedule verify, each deterministic mutation is rejected with
// its specific diagnostic code, and the IR's modelled IO reproduces both
// the runtime stats counters and the memsim address stream byte-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <map>
#include <tuple>
#include <vector>

#include "analysis/schedir.hpp"
#include "analysis/verify.hpp"
#include "common/matrix.hpp"
#include "common/rng.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "gotoblas/goto_gemm.hpp"
#include "kernel/registry.hpp"
#include "machine/machine.hpp"
#include "obs/trace.hpp"

namespace cake {
namespace {

using schedir::Exec;
using schedir::Mutation;
using schedir::ScheduleIR;
using schedir::VerifyReport;

ThreadPool& test_pool()
{
    static ThreadPool pool(4);
    return pool;
}

/// Deterministic multi-column CB geometry on a Table-2 preset: mc forced
/// small so every shape below spans several blocks per dimension.
CbBlockParams preset_params(int p = 0)
{
    const MachineSpec machine = intel_i9_10900k();
    TilingOptions topts;
    topts.mc = 48;
    return compute_cb_block(machine, p > 0 ? p : machine.cores, 6, 16,
                            topts);
}

using CakeConfig = std::tuple<ScheduleKind, Exec>;

class CleanIrTest : public ::testing::TestWithParam<CakeConfig> {};

TEST_P(CleanIrTest, VerifiesCleanAcrossShapes)
{
    const auto [kind, exec] = GetParam();
    const CbBlockParams params = preset_params();
    for (const GemmShape shape :
         {GemmShape{1000, 1000, 200}, GemmShape{1000, 700, 96},
          GemmShape{490, 1300, 150}}) {
        const ScheduleIR ir =
            schedir::extract_cake_ir(shape, params, kind, exec);
        const VerifyReport report = schedir::verify_schedule_ir(ir);
        EXPECT_TRUE(report.ok())
            << schedule_kind_name(kind) << "/" << schedir::exec_name(exec)
            << " " << shape.m << "x" << shape.n << "x" << shape.k << ": "
            << report.codes();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, CleanIrTest,
    ::testing::Combine(::testing::Values(ScheduleKind::kKFirstSerpentine,
                                         ScheduleKind::kKFirstNoFlip,
                                         ScheduleKind::kNInnermost),
                       ::testing::Values(Exec::kSerial, Exec::kPipelined)));

TEST(SchedirGoto, CleanIrVerifies)
{
    const MachineSpec machine = intel_i9_10900k();
    const GotoBlocking blocking = goto_default_blocking(machine, 6, 16);
    const ScheduleIR ir = schedir::extract_goto_ir(
        GemmShape{1000, 1000, 600}, blocking, machine.cores, 6, 16);
    const VerifyReport report = schedir::verify_schedule_ir(ir);
    EXPECT_TRUE(report.ok()) << report.codes();
    EXPECT_EQ(ir.expected_accums, (600 + blocking.kc - 1) / blocking.kc);
}

TEST(SchedirGoto, AccumulateModeVerifies)
{
    const MachineSpec machine = intel_i9_10900k();
    const ScheduleIR ir = schedir::extract_goto_ir(
        GemmShape{600, 800, 300}, goto_default_blocking(machine, 6, 16),
        machine.cores, 6, 16, /*accumulate=*/true);
    EXPECT_TRUE(schedir::verify_schedule_ir(ir).ok());
}

TEST(SchedirCake, PrepackedAndBetaVariantsVerify)
{
    const CbBlockParams params = preset_params();
    const GemmShape shape{1000, 700, 200};
    for (const bool prepacked : {false, true}) {
        for (const bool beta : {false, true}) {
            const ScheduleIR ir = schedir::extract_cake_ir(
                shape, params, ScheduleKind::kKFirstSerpentine,
                Exec::kPipelined, prepacked, beta);
            EXPECT_TRUE(schedir::verify_schedule_ir(ir).ok())
                << "prepacked=" << prepacked << " beta=" << beta;
        }
    }
}

// ------------------------------------------------------------- mutations

ScheduleIR mutation_subject(Exec exec)
{
    const GemmShape shape{1000, 1000, 200};
    if (exec == Exec::kGoto) {
        const MachineSpec machine = intel_i9_10900k();
        return schedir::extract_goto_ir(
            shape, goto_default_blocking(machine, 6, 16), machine.cores, 6,
            16);
    }
    return schedir::extract_cake_ir(shape, preset_params(),
                                    ScheduleKind::kKFirstSerpentine, exec);
}

struct MutationCase {
    Mutation mutation;
    const char* expected;
};

// Without a printer gtest names each case by the struct's raw bytes, which
// hold the literal's address and padding and so change from build to build.
void PrintTo(const MutationCase& mc, std::ostream* os)
{
    *os << schedir::mutation_name(mc.mutation) << ':' << mc.expected;
}

class MutationTest : public ::testing::TestWithParam<MutationCase> {};

TEST_P(MutationTest, RejectedWithItsSpecificCode)
{
    const MutationCase mc = GetParam();
    ScheduleIR ir = mutation_subject(Exec::kPipelined);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const std::string code = schedir::apply_mutation(ir, mc.mutation);
    EXPECT_EQ(code, mc.expected);
    const VerifyReport report = schedir::verify_schedule_ir(ir);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(code))
        << schedir::mutation_name(mc.mutation) << " expected " << code
        << ", verifier reported [" << report.codes() << "]";
}

INSTANTIATE_TEST_SUITE_P(
    AllMutations, MutationTest,
    ::testing::Values(
        MutationCase{Mutation::kDropOp, "IR_COVER"},
        MutationCase{Mutation::kDupOp, "IR_COVER"},
        MutationCase{Mutation::kReorderAccum, "IR_ORDER"},
        MutationCase{Mutation::kSeverColumnBarrier, "IR_RACE_WW"},
        MutationCase{Mutation::kSeverPackBarrier, "IR_RACE_RW"},
        MutationCase{Mutation::kShrinkGeneration, "IR_LIFETIME"},
        MutationCase{Mutation::kDropFirstSlab, "IR_COVER"}));

TEST(MutationSites, SerialAndGotoRejectLostAndDuplicatedUpdates)
{
    for (const Exec exec : {Exec::kSerial, Exec::kGoto}) {
        for (const Mutation m : {Mutation::kDropOp, Mutation::kDupOp}) {
            ScheduleIR ir = mutation_subject(exec);
            const std::string code = schedir::apply_mutation(ir, m);
            EXPECT_EQ(code, "IR_COVER");
            EXPECT_TRUE(schedir::verify_schedule_ir(ir).has(code))
                << schedir::exec_name(exec);
        }
    }
}

TEST(MutationSites, InapplicableMutationThrows)
{
    // GOTO has no column visits and no double buffers: those mutations
    // have no site and must refuse rather than silently no-op.
    ScheduleIR ir = mutation_subject(Exec::kGoto);
    EXPECT_THROW(schedir::apply_mutation(ir, Mutation::kDropFirstSlab),
                 Error);
    EXPECT_THROW(schedir::apply_mutation(ir, Mutation::kShrinkGeneration),
                 Error);
}

// ------------------------------------------- IO model vs runtime counters

/// Extract the IR with the exact geometry the runtime chose (its stats
/// params) and require byte-exact agreement with the executed multiply's
/// DRAM counters.
void expect_ir_matches_cake_stats(ScheduleKind kind, CakeExec exec,
                                  bool accumulate)
{
    Rng rng(1234);
    const index_t m = 150, n = 170, k = 90;
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);
    c.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    options.schedule = kind;
    options.exec = exec;
    options.accumulate = accumulate;
    CakeGemm gemm(test_pool(), options);
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
    const CakeStats& stats = gemm.stats();

    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{m, n, k}, stats.params, kind,
        stats.pipelined ? Exec::kPipelined : Exec::kSerial,
        /*use_prepacked=*/false, /*beta_nonzero=*/accumulate);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes);
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
    EXPECT_EQ(static_cast<index_t>(ir.ops.size() > 0), 1);
}

TEST(IoAgainstRuntime, SerialAllSchedules)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        expect_ir_matches_cake_stats(kind, CakeExec::kSerial, false);
    }
}

TEST(IoAgainstRuntime, PipelinedAllSchedules)
{
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        expect_ir_matches_cake_stats(kind, CakeExec::kPipelined, false);
    }
}

TEST(IoAgainstRuntime, AccumulateAddsRmwTraffic)
{
    expect_ir_matches_cake_stats(ScheduleKind::kKFirstSerpentine,
                                 CakeExec::kPipelined, true);
}

TEST(IoAgainstRuntime, PrepackedSkipsNothingButPackOps)
{
    Rng rng(77);
    const index_t m = 140, n = 160, k = 80;
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);

    CakeOptions options;
    options.mc = best_microkernel().mr * 2;
    options.exec = CakeExec::kPipelined;
    CakeGemm gemm(test_pool(), options);
    const PackedBF packed = gemm.pack_weights(b.data(), n, k, n);
    gemm.multiply_prepacked(a.data(), k, packed, c.data(), n, m);
    const CakeStats& stats = gemm.stats();

    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{m, n, k}, stats.params, options.schedule,
        Exec::kPipelined, /*use_prepacked=*/true, /*beta_nonzero=*/false);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes);
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
    for (const schedir::TileOp& op : ir.ops) {
        EXPECT_NE(op.kind, schedir::OpKind::kPackB);
    }
}

TEST(IoAgainstRuntime, GotoStatsMatchIr)
{
    Rng rng(99);
    const index_t m = 300, n = 260, k = 200;
    Matrix a(m, k), b(k, n), c(m, n);
    a.fill_random(rng);
    b.fill_random(rng);

    GotoOptions options;
    options.p = 4;
    GotoGemm gemm(test_pool(), options);
    gemm.multiply(a.data(), k, b.data(), n, c.data(), n, m, n, k);
    const GotoStats& stats = gemm.stats();

    const MicroKernel& kernel = best_microkernel();
    const ScheduleIR ir = schedir::extract_goto_ir(
        GemmShape{m, n, k}, GotoBlocking{stats.mc, stats.kc, stats.nc}, 4,
        kernel.mr, kernel.nr);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok());

    const schedir::IoTotals io = schedir::io_totals(ir);
    EXPECT_EQ(io.reads(), stats.dram_read_bytes);
    EXPECT_EQ(io.writes(), stats.dram_write_bytes);
}

// ------------------------------------------- IR phases vs traced spans

#if CAKE_OBS_ENABLED

/// Per-phase op counts, indexed [phase][kind] over the three kinds the
/// executor emits a span for (pack.A, pack.B, compute).
using PhaseCounts = std::vector<std::array<index_t, 3>>;

int span_kind(const char* name)
{
    const char* names[] = {"pack.A", "pack.B", "compute"};
    for (int i = 0; i < 3; ++i) {
        if (std::strcmp(name, names[i]) == 0) return i;
    }
    return -1;
}

int op_kind(schedir::OpKind kind)
{
    switch (kind) {
    case schedir::OpKind::kPackA: return 0;
    case schedir::OpKind::kPackB: return 1;
    case schedir::OpKind::kCompute: return 2;
    case schedir::OpKind::kStreamB: break;  // no work item, no span
    }
    return -1;
}

PhaseCounts ir_phase_counts(const ScheduleIR& ir)
{
    PhaseCounts counts(static_cast<std::size_t>(ir.num_phases),
                       std::array<index_t, 3>{});
    for (const schedir::TileOp& op : ir.ops) {
        const int kind = op_kind(op.kind);
        if (kind >= 0) ++counts[static_cast<std::size_t>(op.phase)][kind];
    }
    return counts;
}

/// Attribute the traced spans to phases. Barriers separate phases, so
/// every span of phase q starts no later than any span of phase q + 1:
/// in start order, phase q's spans are the next sum(expected[q]) ones.
PhaseCounts traced_phase_counts(const obs::TraceDump& dump,
                                const PhaseCounts& expected)
{
    std::vector<obs::TraceEvent> spans;
    for (const obs::ThreadTrace& t : dump.threads) {
        for (const obs::TraceEvent& e : t.events) {
            if (span_kind(e.name) >= 0) spans.push_back(e);
        }
    }
    std::sort(spans.begin(), spans.end(),
              [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                  return std::tie(a.start_ns, a.dur_ns)
                      < std::tie(b.start_ns, b.dur_ns);
              });
    PhaseCounts got(expected.size(), std::array<index_t, 3>{});
    std::size_t next = 0;
    for (std::size_t q = 0; q < expected.size(); ++q) {
        index_t n = 0;
        for (const index_t c : expected[q]) n += c;
        for (index_t i = 0; i < n && next < spans.size(); ++i, ++next) {
            ++got[q][span_kind(spans[next].name)];
        }
    }
    EXPECT_EQ(next, spans.size()) << "more spans traced than IR ops";
    return got;
}

/// Run `multiply` traced and require its spans, phase by phase and kind
/// by kind, to equal the ops extract_cake_ir emits for the stats' params.
template <typename Multiply>
void expect_spans_match_ir(const char* what, Multiply&& multiply,
                           const GemmShape& shape, ScheduleKind kind,
                           bool prepacked, index_t operand_bytes)
{
    obs::disable();
    obs::reset();
    obs::enable(1 << 16);
    const CakeStats stats = multiply();
    obs::disable();
    const obs::TraceDump dump = obs::collect();
    obs::reset();
    ASSERT_EQ(dump.total_dropped(), 0u) << what;

    const ScheduleIR ir = schedir::extract_cake_ir(
        shape, stats.params, kind,
        stats.pipelined ? Exec::kPipelined : Exec::kSerial, prepacked,
        /*beta_nonzero=*/false, operand_bytes);
    ASSERT_TRUE(schedir::verify_schedule_ir(ir).ok()) << what;
    for (const schedir::TileOp& op : ir.ops) {
        ASSERT_EQ(op.worker, -1) << what << ": CAKE ops are claimed items";
    }
    const PhaseCounts want = ir_phase_counts(ir);
    const PhaseCounts got = traced_phase_counts(dump, want);
    ASSERT_GT(want.size(), 3u) << what;
    for (std::size_t q = 0; q < want.size(); ++q) {
        const std::string into = q == 0 ? "fill" : ir.barrier_label[q - 1];
        EXPECT_EQ(got[q], want[q])
            << what << ": phase " << q << " (" << into << ")";
    }
}

TEST(SpansAgainstIr, EveryExecutorInstantiationRunsTheVerifiedPhases)
{
    const GemmShape shape{150, 170, 90};
    Rng rng(4321);
    Matrix a(shape.m, shape.k), b(shape.k, shape.n), c(shape.m, shape.n);
    a.fill_random(rng);
    b.fill_random(rng);
    for (const CakeExec exec : {CakeExec::kSerial, CakeExec::kPipelined}) {
        CakeOptions options;
        options.mc = best_microkernel().mr * 2;
        options.exec = exec;
        CakeGemm gemm(test_pool(), options);
        expect_spans_match_ir(
            exec == CakeExec::kSerial ? "f32 lookahead 0" : "f32 lookahead 1",
            [&] {
                gemm.multiply(a.data(), shape.k, b.data(), shape.n,
                              c.data(), shape.n, shape.m, shape.n, shape.k);
                return gemm.stats();
            },
            shape, options.schedule, /*prepacked=*/false,
            /*operand_bytes=*/0);
    }

    // int8: its own kernel geometry (mr = 4, nr = 16 or 32) and 1-byte
    // operands, through the same lowering; pre-packed weights, as in
    // inference serving.
    std::vector<std::uint8_t> qa(static_cast<std::size_t>(shape.m * shape.k),
                                 5);
    std::vector<std::int8_t> qb(static_cast<std::size_t>(shape.k * shape.n),
                                -3);
    std::vector<std::int32_t> qc(static_cast<std::size_t>(shape.m * shape.n));
    CakeOptions options;
    options.mc = best_int8_microkernel().mr * 4;
    options.kc = 32;
    CakeGemmInt8 gemm(test_pool(), options);
    const PackedBInt8 packed =
        gemm.pack_weights(qb.data(), shape.n, shape.k, shape.n);
    expect_spans_match_ir(
        "int8 lookahead 1",
        [&] {
            gemm.multiply_prepacked(qa.data(), shape.k, packed, qc.data(),
                                    shape.n, shape.m);
            return gemm.stats();
        },
        shape, options.schedule, /*prepacked=*/true, /*operand_bytes=*/1);
    EXPECT_EQ(gemm.stats().params.mr, best_int8_microkernel().mr);
    EXPECT_EQ(gemm.stats().params.nr, best_int8_microkernel().nr);
    for (const std::int32_t v : qc) ASSERT_EQ(v, -15 * shape.k);
}

#endif  // CAKE_OBS_ENABLED

// ------------------------------------------------------- memsim agreement

TEST(MemsimCrossCheck, CakeExactForEverySchedule)
{
    const CbBlockParams params = preset_params(4);
    const GemmShape shape{300, 260, 100};
    for (const ScheduleKind kind :
         {ScheduleKind::kKFirstSerpentine, ScheduleKind::kKFirstNoFlip,
          ScheduleKind::kNInnermost}) {
        for (const Exec exec : {Exec::kSerial, Exec::kPipelined}) {
            const ScheduleIR ir =
                schedir::extract_cake_ir(shape, params, kind, exec);
            const VerifyReport report = schedir::cross_check_memsim(ir);
            EXPECT_TRUE(report.ok())
                << schedule_kind_name(kind) << "/"
                << schedir::exec_name(exec) << ": " << report.codes();
        }
    }
}

TEST(MemsimCrossCheck, GotoExact)
{
    const MachineSpec machine = arm_cortex_a53();
    const ScheduleIR ir = schedir::extract_goto_ir(
        GemmShape{300, 260, 200}, goto_default_blocking(machine, 6, 16),
        machine.cores, 6, 16);
    const VerifyReport report = schedir::cross_check_memsim(ir);
    EXPECT_TRUE(report.ok()) << report.codes();
}

TEST(MemsimCrossCheck, RefusesInapplicableIr)
{
    const ScheduleIR ir = schedir::extract_cake_ir(
        GemmShape{300, 260, 100}, preset_params(4),
        ScheduleKind::kKFirstSerpentine, Exec::kPipelined,
        /*use_prepacked=*/true);
    EXPECT_TRUE(schedir::cross_check_memsim(ir).has("IR_MALFORMED"));
}

}  // namespace
}  // namespace cake
