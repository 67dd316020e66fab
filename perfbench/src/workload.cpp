#include "workload.hpp"

#include <stdexcept>
#include <string>
#include <utility>

namespace perfbench {

namespace {

constexpr index_t kSquareEdge = 2048;
constexpr index_t kShallowMN = 2048;
constexpr index_t kShallowK = 64;

/// Independent generator per buffer, so a buffer's contents depend only
/// on (seed, tag) and not on the order buffers are generated in.
cake::Rng buffer_rng(std::uint64_t seed, std::uint64_t tag)
{
    return cake::Rng(seed ^ (0x9E3779B97F4A7C15ULL * (tag + 1)));
}

std::vector<float> uniform_f32(std::uint64_t seed, std::uint64_t tag,
                               index_t count)
{
    cake::Rng rng = buffer_rng(seed, tag);
    std::vector<float> v(static_cast<std::size_t>(count));
    for (float& x : v) x = rng.next_float(-1.0f, 1.0f);
    return v;
}

/// u8 activations in [0, 127] (the range quantize_unsigned produces).
std::vector<std::uint8_t> uniform_u8(std::uint64_t seed, std::uint64_t tag,
                                     index_t count)
{
    cake::Rng rng = buffer_rng(seed, tag);
    std::vector<std::uint8_t> v(static_cast<std::size_t>(count));
    for (std::uint8_t& x : v) x = static_cast<std::uint8_t>(rng.next_below(128));
    return v;
}

/// s8 weights in [-127, 127] (symmetric quantization).
std::vector<std::int8_t> uniform_s8(std::uint64_t seed, std::uint64_t tag,
                                    index_t count)
{
    cake::Rng rng = buffer_rng(seed, tag);
    std::vector<std::int8_t> v(static_cast<std::size_t>(count));
    for (std::int8_t& x : v) {
        x = static_cast<std::int8_t>(static_cast<int>(rng.next_below(255)) - 127);
    }
    return v;
}

std::size_t count_of(index_t rows, index_t cols)
{
    return static_cast<std::size_t>(rows * cols);
}

}  // namespace

const char* workload_name(WorkloadKind kind)
{
    switch (kind) {
        case WorkloadKind::kSquare: return "square";
        case WorkloadKind::kShallowK: return "shallow-k";
        case WorkloadKind::kInferMix: return "infer-mix";
    }
    return "?";
}

std::optional<WorkloadKind> parse_workload(std::string_view name)
{
    for (const WorkloadKind kind :
         {WorkloadKind::kSquare, WorkloadKind::kShallowK,
          WorkloadKind::kInferMix}) {
        if (name == workload_name(kind)) return kind;
    }
    return std::nullopt;
}

const char* call_class_name(CallClass cls)
{
    switch (cls) {
        case CallClass::kF32Multiply: return "f32_multiply";
        case CallClass::kF32Prepacked: return "f32_prepacked";
        case CallClass::kI8Prepacked: return "i8_prepacked";
        case CallClass::kF32ScaledBt: return "f32_scaled_bt";
        case CallClass::kF32Small: return "f32_small";
    }
    return "?";
}

std::vector<CallSpec> workload_calls(WorkloadKind kind)
{
    switch (kind) {
        case WorkloadKind::kSquare:
            return {{CallClass::kF32Multiply, kSquareEdge, kSquareEdge,
                     kSquareEdge, 0}};
        case WorkloadKind::kShallowK:
            return {{CallClass::kF32Multiply, kShallowMN, kShallowMN,
                     kShallowK, 0}};
        case WorkloadKind::kInferMix: {
            std::vector<CallSpec> calls;
            for (int s = 0; s < 3; ++s) {
                calls.push_back(
                    {CallClass::kF32Prepacked, kMixM[s], kMixN, kMixK, s});
            }
            for (int s = 0; s < 3; ++s) {
                calls.push_back(
                    {CallClass::kI8Prepacked, kMixM[s], kMixN, kMixK, s});
            }
            calls.push_back({CallClass::kF32ScaledBt, kMixScaled, kMixScaled,
                             kMixScaled, 0});
            calls.push_back({CallClass::kF32Small, kMixSmall, kMixSmall,
                             kMixSmall, 0});
            return calls;
        }
    }
    return {};
}

double op_flops(WorkloadKind kind)
{
    double flops = 0;
    for (const CallSpec& call : workload_calls(kind)) flops += call.flops();
    return flops;
}

Inputs Inputs::generate(WorkloadKind kind, std::uint64_t seed)
{
    Inputs in;
    in.kind = kind;
    if (kind != WorkloadKind::kInferMix) {
        const CallSpec call = workload_calls(kind).front();
        in.a = uniform_f32(seed, 0, call.m * call.k);
        in.b = uniform_f32(seed, 1, call.k * call.n);
        in.c.assign(count_of(call.m, call.n), 0.0f);
        return in;
    }
    for (int s = 0; s < 3; ++s) {
        const auto tag = static_cast<std::uint64_t>(s);
        in.mix_a[s] = uniform_f32(seed, 10 + tag, kMixM[s] * kMixK);
        in.mix_c[s].assign(count_of(kMixM[s], kMixN), 0.0f);
        in.mix_qa[s] = uniform_u8(seed, 20 + tag, kMixM[s] * kMixK);
        in.mix_qc[s].assign(count_of(kMixM[s], kMixN), 0);
    }
    in.mix_w = uniform_f32(seed, 30, kMixK * kMixN);
    in.mix_qw = uniform_s8(seed, 31, kMixK * kMixN);
    in.sc_a = uniform_f32(seed, 40, kMixScaled * kMixScaled);
    in.sc_bt = uniform_f32(seed, 41, kMixScaled * kMixScaled);
    in.sc_c = uniform_f32(seed, 42, kMixScaled * kMixScaled);
    in.sm_a = uniform_f32(seed, 50, kMixSmall * kMixSmall);
    in.sm_b = uniform_f32(seed, 51, kMixSmall * kMixSmall);
    in.sm_c.assign(count_of(kMixSmall, kMixSmall), 0.0f);
    return in;
}

OrderStream::OrderStream(std::uint64_t seed, std::size_t calls)
    : rng_(buffer_rng(seed, 100)), calls_(calls)
{
}

std::vector<std::size_t> OrderStream::next()
{
    std::vector<std::size_t> order(calls_);
    for (std::size_t i = 0; i < calls_; ++i) order[i] = i;
    // Fisher-Yates over the library's own generator.
    for (std::size_t i = calls_; i > 1; --i) {
        const auto j = static_cast<std::size_t>(rng_.next_below(i));
        std::swap(order[i - 1], order[j]);
    }
    return order;
}

Runner::Runner(WorkloadKind kind, Inputs& inputs, cake::ThreadPool& pool,
               int p)
    : in_(inputs), calls_(workload_calls(kind)),
      stats_(calls_.size())
{
    if (inputs.kind != kind) {
        throw std::invalid_argument("Runner: inputs generated for "
                                    + std::string(workload_name(inputs.kind)));
    }
    cake::CakeOptions options;
    options.p = p;
    // Analytic plans only: a persisted tuning cache must not change what
    // is measured.
    options.plan_source = nullptr;
    f32_ = std::make_unique<cake::CakeGemm>(pool, options);
    if (kind != WorkloadKind::kInferMix) return;

    cake::CakeOptions bt = options;
    bt.op_b = cake::Op::kTranspose;
    f32_bt_ = std::make_unique<cake::CakeGemm>(pool, bt);
    i8_ = std::make_unique<cake::CakeGemmInt8>(pool, options);
    w_f32_ = f32_->pack_weights(in_.mix_w.data(), kMixN, kMixK, kMixN);
    w_i8_ = i8_->pack_weights(in_.mix_qw.data(), kMixN, kMixK, kMixN);
}

void Runner::call(std::size_t index)
{
    const CallSpec& cs = calls_.at(index);
    const auto s = static_cast<std::size_t>(cs.slot);
    switch (cs.cls) {
        case CallClass::kF32Multiply:
            f32_->multiply(in_.a.data(), cs.k, in_.b.data(), cs.n,
                           in_.c.data(), cs.n, cs.m, cs.n, cs.k);
            stats_[index] = f32_->stats();
            return;
        case CallClass::kF32Prepacked:
            f32_->multiply_prepacked(in_.mix_a[s].data(), kMixK, w_f32_,
                                     in_.mix_c[s].data(), kMixN, cs.m);
            stats_[index] = f32_->stats();
            return;
        case CallClass::kI8Prepacked:
            i8_->multiply_prepacked(in_.mix_qa[s].data(), kMixK, w_i8_,
                                    in_.mix_qc[s].data(), kMixN, cs.m);
            stats_[index] = i8_->stats();
            return;
        case CallClass::kF32ScaledBt:
            f32_bt_->multiply_scaled(in_.sc_a.data(), cs.k, in_.sc_bt.data(),
                                     cs.k, in_.sc_c.data(), cs.n, cs.m, cs.n,
                                     cs.k, 1.0f, kMixBeta);
            stats_[index] = f32_bt_->stats();
            return;
        case CallClass::kF32Small:
            f32_->multiply(in_.sm_a.data(), cs.k, in_.sm_b.data(), cs.n,
                           in_.sm_c.data(), cs.n, cs.m, cs.n, cs.k);
            stats_[index] = f32_->stats();
            return;
    }
}

const cake::CakeStats& Runner::stats(std::size_t index) const
{
    return stats_.at(index);
}

}  // namespace perfbench
