// Benchmark workloads: seeded inputs, the public-API calls one op makes,
// and the long-lived library contexts that run them.
//
// Every workload is a closed loop: one caller thread issues an op, waits
// for it, checks it, and only then issues the next. The library sees only
// the buffers generated here from the workload seed.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "core/cake_gemm.hpp"
#include "core/cake_gemm_int8.hpp"
#include "threading/thread_pool.hpp"

namespace perfbench {

using cake::index_t;

enum class WorkloadKind {
    kSquare,    ///< f32 2048^3 through CakeGemm::multiply
    kShallowK,  ///< f32 2048 x 2048 x 64 through CakeGemm::multiply
    kInferMix,  ///< 8-call inference step over prepacked weights
};

const char* workload_name(WorkloadKind kind);
std::optional<WorkloadKind> parse_workload(std::string_view name);

/// Which public entry point a call goes through; also the grouping of the
/// per-class timings on infer-mix.
enum class CallClass {
    kF32Multiply,   ///< CakeGemm::multiply, overwrite (square, shallow-k)
    kF32Prepacked,  ///< CakeGemm::multiply_prepacked
    kI8Prepacked,   ///< CakeGemmInt8::multiply_prepacked
    kF32ScaledBt,   ///< CakeGemm::multiply_scaled, op_b = kTranspose
    kF32Small,      ///< CakeGemm::multiply on a 256^3 problem
};
inline constexpr int kCallClasses = 5;

const char* call_class_name(CallClass cls);

/// One public-API call of an op. `slot` picks the operand buffers of the
/// call among those of its class (the M index on infer-mix).
struct CallSpec {
    CallClass cls = CallClass::kF32Multiply;
    index_t m = 0, n = 0, k = 0;
    int slot = 0;

    [[nodiscard]] double flops() const
    {
        return 2.0 * static_cast<double>(m) * static_cast<double>(n)
            * static_cast<double>(k);
    }
};

/// The calls of one op, in canonical order (the order an op runs them is
/// a seeded permutation of this list).
std::vector<CallSpec> workload_calls(WorkloadKind kind);

/// Operation count of one op (int8 multiply-adds count as two operations).
double op_flops(WorkloadKind kind);

/// Constants of infer-mix, shared with the tests.
inline constexpr index_t kMixK = 1024;       ///< weight rows
inline constexpr index_t kMixN = 1024;       ///< weight columns
inline constexpr index_t kMixM[3] = {32, 128, 512};
inline constexpr index_t kMixScaled = 384;   ///< scaled-B^T cube edge
inline constexpr index_t kMixSmall = 256;    ///< small multiply cube edge
inline constexpr float kMixBeta = 0.5f;

/// Every buffer an op reads or writes, generated from the workload seed.
/// Row-major throughout; leading dimension = column count.
struct Inputs {
    WorkloadKind kind = WorkloadKind::kSquare;

    // square / shallow-k: C = A * B with A m x k, B k x n.
    std::vector<float> a, b, c;

    // infer-mix.
    std::vector<float> mix_a[3];         ///< activations, kMixM[i] x kMixK
    std::vector<float> mix_w;            ///< f32 weights, kMixK x kMixN
    std::vector<float> mix_c[3];         ///< f32 outputs, kMixM[i] x kMixN
    std::vector<std::uint8_t> mix_qa[3];  ///< u8 activations in [0, 127]
    std::vector<std::int8_t> mix_qw;     ///< s8 weights in [-127, 127]
    std::vector<std::int32_t> mix_qc[3];  ///< s32 outputs
    std::vector<float> sc_a, sc_bt, sc_c;  ///< scaled call; sc_bt is n x k
    std::vector<float> sm_a, sm_b, sm_c;   ///< small call

    /// Generate every input of `kind` from `seed`. The one output the
    /// library reads (sc_c, with beta != 0) is seeded too; the other
    /// outputs start at zero.
    static Inputs generate(WorkloadKind kind, std::uint64_t seed);
};

/// Seeded stream of per-op call orders.
class OrderStream {
public:
    OrderStream(std::uint64_t seed, std::size_t calls);
    /// Next op's order: a permutation of [0, calls).
    std::vector<std::size_t> next();

private:
    cake::Rng rng_;
    std::size_t calls_;
};

/// The long-lived library contexts of one workload at one worker count:
/// constructing a Runner is the workload's set-up (contexts plus
/// pack_weights); call() drives one public-API call.
class Runner {
public:
    Runner(WorkloadKind kind, Inputs& inputs, cake::ThreadPool& pool, int p);
    Runner(const Runner&) = delete;
    Runner& operator=(const Runner&) = delete;

    [[nodiscard]] const std::vector<CallSpec>& calls() const
    {
        return calls_;
    }

    /// Run call `index` of calls() through the public API.
    void call(std::size_t index);

    /// Stats the library reported for the most recent run of call `index`.
    [[nodiscard]] const cake::CakeStats& stats(std::size_t index) const;

    /// CB-block geometry the library planned for call `index` (valid once
    /// the call has run).
    [[nodiscard]] const cake::CbBlockParams& params(std::size_t index) const
    {
        return stats(index).params;
    }

private:
    Inputs& in_;
    std::vector<CallSpec> calls_;
    std::vector<cake::CakeStats> stats_;
    std::unique_ptr<cake::CakeGemm> f32_;     ///< plain layout
    std::unique_ptr<cake::CakeGemm> f32_bt_;  ///< op_b = kTranspose
    std::unique_ptr<cake::CakeGemmInt8> i8_;
    cake::PackedB<float> w_f32_;
    cake::PackedBInt8 w_i8_;
};

}  // namespace perfbench
