// Tests of the benchmark's own generators and output check.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <vector>

#include "check.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

constexpr WorkloadKind kAllKinds[] = {WorkloadKind::kSquare,
                                      WorkloadKind::kShallowK,
                                      WorkloadKind::kInferMix};

template <typename T>
bool same_bytes(const std::vector<T>& x, const std::vector<T>& y)
{
    return x.size() == y.size()
        && (x.empty()
            || std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// Every buffer of two input sets, compared byte for byte.
bool same_inputs(const Inputs& x, const Inputs& y)
{
    bool same = x.kind == y.kind && same_bytes(x.a, y.a) && same_bytes(x.b, y.b)
        && same_bytes(x.c, y.c) && same_bytes(x.mix_w, y.mix_w)
        && same_bytes(x.mix_qw, y.mix_qw) && same_bytes(x.sc_a, y.sc_a)
        && same_bytes(x.sc_bt, y.sc_bt) && same_bytes(x.sc_c, y.sc_c)
        && same_bytes(x.sm_a, y.sm_a) && same_bytes(x.sm_b, y.sm_b)
        && same_bytes(x.sm_c, y.sm_c);
    for (int s = 0; s < 3; ++s) {
        same = same && same_bytes(x.mix_a[s], y.mix_a[s])
            && same_bytes(x.mix_c[s], y.mix_c[s])
            && same_bytes(x.mix_qa[s], y.mix_qa[s])
            && same_bytes(x.mix_qc[s], y.mix_qc[s]);
    }
    return same;
}

std::vector<std::vector<std::size_t>> first_orders(std::uint64_t seed,
                                                   int count)
{
    OrderStream stream(seed, workload_calls(WorkloadKind::kInferMix).size());
    std::vector<std::vector<std::size_t>> orders;
    for (int i = 0; i < count; ++i) orders.push_back(stream.next());
    return orders;
}

TEST(PerfbenchInputs, SameSeedGivesByteIdenticalInputs)
{
    for (const WorkloadKind kind : kAllKinds) {
        EXPECT_TRUE(same_inputs(Inputs::generate(kind, 7),
                                Inputs::generate(kind, 7)))
            << workload_name(kind);
    }
}

TEST(PerfbenchInputs, DifferentSeedGivesDifferentInputs)
{
    for (const WorkloadKind kind : kAllKinds) {
        EXPECT_FALSE(same_inputs(Inputs::generate(kind, 7),
                                 Inputs::generate(kind, 8)))
            << workload_name(kind);
    }
    const Inputs x = Inputs::generate(WorkloadKind::kInferMix, 7);
    const Inputs y = Inputs::generate(WorkloadKind::kInferMix, 8);
    EXPECT_FALSE(same_bytes(x.mix_qw, y.mix_qw));
    EXPECT_FALSE(same_bytes(x.mix_qa[0], y.mix_qa[0]));
}

TEST(PerfbenchInputs, QuantizedInputsStayInKernelRange)
{
    const Inputs in = Inputs::generate(WorkloadKind::kInferMix, 3);
    for (const std::uint8_t v : in.mix_qa[2]) ASSERT_LE(v, 127);
    for (const std::int8_t v : in.mix_qw) ASSERT_GE(v, -127);
}

TEST(PerfbenchOrder, SameSeedGivesSameStepOrder)
{
    EXPECT_EQ(first_orders(11, 50), first_orders(11, 50));
}

TEST(PerfbenchOrder, DifferentSeedGivesDifferentStepOrder)
{
    EXPECT_NE(first_orders(11, 50), first_orders(12, 50));
}

TEST(PerfbenchOrder, EveryOrderIsAPermutationOfTheStep)
{
    for (std::vector<std::size_t> order : first_orders(5, 50)) {
        std::sort(order.begin(), order.end());
        for (std::size_t i = 0; i < order.size(); ++i) ASSERT_EQ(order[i], i);
    }
}

/// Runs every call of `kind` twice with fresh samples and returns the
/// summed check result.
CheckResult run_and_check(WorkloadKind kind, std::uint64_t seed)
{
    Inputs in = Inputs::generate(kind, seed);
    cake::ThreadPool pool(2);
    Runner runner(kind, in, pool, 2);
    cake::Rng rng(seed);
    CheckResult total;
    for (int rep = 0; rep < 2; ++rep) {
        for (std::size_t i = 0; i < runner.calls().size(); ++i) {
            const Samples samples = pick_samples(rng, in, runner.calls()[i]);
            runner.call(i);
            const CheckResult r =
                check_call(in, runner.calls()[i], runner.params(i), samples);
            total.checked += r.checked;
            total.failed += r.failed;
        }
    }
    return total;
}

TEST(PerfbenchCheck, PassesForTwoSeeds)
{
    for (const WorkloadKind kind : kAllKinds) {
        for (const std::uint64_t seed : {1u, 2u}) {
            const CheckResult r = run_and_check(kind, seed);
            EXPECT_GT(r.checked, 0) << workload_name(kind) << " seed " << seed;
            EXPECT_EQ(r.failed, 0) << workload_name(kind) << " seed " << seed;
        }
    }
}

/// Adds one unit to output element (i, j) of `call`.
void corrupt(Inputs& in, const CallSpec& call, index_t i, index_t j)
{
    const auto s = static_cast<std::size_t>(call.slot);
    const auto at = static_cast<std::size_t>(i * call.n + j);
    switch (call.cls) {
        case CallClass::kF32Multiply: in.c[at] += 1.0f; return;
        case CallClass::kF32Prepacked: in.mix_c[s][at] += 1.0f; return;
        case CallClass::kI8Prepacked: in.mix_qc[s][at] += 1; return;
        case CallClass::kF32ScaledBt: in.sc_c[at] += 1.0f; return;
        case CallClass::kF32Small: in.sm_c[at] += 1.0f; return;
    }
}

TEST(PerfbenchCheck, CatchesOneCorruptedElementOfEveryCallClass)
{
    for (const WorkloadKind kind :
         {WorkloadKind::kShallowK, WorkloadKind::kInferMix}) {
        Inputs in = Inputs::generate(kind, 5);
        cake::ThreadPool pool(2);
        Runner runner(kind, in, pool, 2);
        cake::Rng rng(5);
        for (std::size_t i = 0; i < runner.calls().size(); ++i) {
            const CallSpec& call = runner.calls()[i];
            const Samples samples = pick_samples(rng, in, call);
            runner.call(i);
            ASSERT_EQ(check_call(in, call, runner.params(i), samples).failed, 0)
                << call_class_name(call.cls);
            corrupt(in, call, samples.rows.back(), samples.cols.back());
            EXPECT_EQ(check_call(in, call, runner.params(i), samples).failed, 1)
                << call_class_name(call.cls);
        }
    }
}

TEST(PerfbenchCheck, NanOutputFails)
{
    Inputs in = Inputs::generate(WorkloadKind::kShallowK, 9);
    cake::ThreadPool pool(1);
    Runner runner(WorkloadKind::kShallowK, in, pool, 1);
    cake::Rng rng(9);
    const Samples samples = pick_samples(rng, in, runner.calls()[0]);
    runner.call(0);
    in.c[static_cast<std::size_t>(samples.rows[0] * runner.calls()[0].n
                                  + samples.cols[0])] = std::nanf("");
    EXPECT_EQ(check_call(in, runner.calls()[0], runner.params(0), samples).failed, 1);
}

}  // namespace
}  // namespace perfbench
