#include "check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "core/fperror.hpp"

namespace perfbench {

namespace {

constexpr index_t kSampleRows = 4;
constexpr index_t kSampleCols = 8;

std::vector<index_t> distinct(cake::Rng& rng, index_t extent, index_t want)
{
    std::vector<index_t> picked;
    const index_t count = std::min(extent, want);
    while (static_cast<index_t>(picked.size()) < count) {
        const auto v = static_cast<index_t>(
            rng.next_below(static_cast<std::uint64_t>(extent)));
        if (std::find(picked.begin(), picked.end(), v) == picked.end()) {
            picked.push_back(v);
        }
    }
    return picked;
}

/// Raw operands of an f32 call in the library's calling convention.
struct F32Call {
    const float* a = nullptr;
    index_t lda = 0;
    const float* b = nullptr;
    index_t ldb = 0;
    bool b_transposed = false;  ///< b stored n x k
    const float* c = nullptr;
    index_t ldc = 0;
    double beta = 0;
};

F32Call f32_operands(const Inputs& in, const CallSpec& call)
{
    const auto s = static_cast<std::size_t>(call.slot);
    switch (call.cls) {
        case CallClass::kF32Multiply:
            return {in.a.data(), call.k, in.b.data(), call.n, false,
                    in.c.data(), call.n, 0.0};
        case CallClass::kF32Prepacked:
            return {in.mix_a[s].data(), kMixK, in.mix_w.data(), kMixN, false,
                    in.mix_c[s].data(), kMixN, 0.0};
        case CallClass::kF32ScaledBt:
            return {in.sc_a.data(), call.k, in.sc_bt.data(), call.k, true,
                    in.sc_c.data(), call.n, kMixBeta};
        case CallClass::kF32Small:
            return {in.sm_a.data(), call.k, in.sm_b.data(), call.n, false,
                    in.sm_c.data(), call.n, 0.0};
        case CallClass::kI8Prepacked: break;
    }
    return {};
}

CheckResult check_f32(const Inputs& in, const CallSpec& call,
                      const cake::CbBlockParams& params,
                      const Samples& samples)
{
    const F32Call op = f32_operands(in, call);
    const double rel =
        cake::plan_error_bound(cake::GemmShape{call.m, call.n, call.k},
                               params, cake::ScheduleKind::kKFirstSerpentine,
                               cake::dtype_f32(), op.beta != 0.0)
            .rel_bound;
    CheckResult result;
    std::vector<double> column(static_cast<std::size_t>(call.k));
    for (std::size_t cj = 0; cj < samples.cols.size(); ++cj) {
        const index_t j = samples.cols[cj];
        for (index_t p = 0; p < call.k; ++p) {
            column[static_cast<std::size_t>(p)] =
                op.b_transposed ? op.b[j * op.ldb + p] : op.b[p * op.ldb + j];
        }
        for (std::size_t ri = 0; ri < samples.rows.size(); ++ri) {
            const index_t i = samples.rows[ri];
            const float* arow = op.a + i * op.lda;
            double ref = 0, denom = 0;
            for (index_t p = 0; p < call.k; ++p) {
                const double prod =
                    static_cast<double>(arow[p]) * column[static_cast<std::size_t>(p)];
                ref += prod;
                denom += std::fabs(prod);
            }
            if (op.beta != 0.0) {
                const double old =
                    op.beta * samples.c_old[ri * samples.cols.size() + cj];
                ref += old;
                denom += std::fabs(old);
            }
            const double err =
                std::fabs(static_cast<double>(op.c[i * op.ldc + j]) - ref);
            const double allowed = rel * denom;
            ++result.checked;
            // Written so a NaN result fails.
            if (!(err <= allowed)) ++result.failed;
            if (allowed > 0) result.worst = std::max(result.worst, err / allowed);
        }
    }
    return result;
}

CheckResult check_i8(const Inputs& in, const CallSpec& call,
                     const Samples& samples)
{
    const auto s = static_cast<std::size_t>(call.slot);
    const std::uint8_t* a = in.mix_qa[s].data();
    const std::int8_t* w = in.mix_qw.data();
    const std::int32_t* c = in.mix_qc[s].data();
    CheckResult result;
    for (const index_t i : samples.rows) {
        for (const index_t j : samples.cols) {
            std::int32_t ref = 0;
            for (index_t p = 0; p < call.k; ++p) {
                ref += static_cast<std::int32_t>(a[i * kMixK + p])
                    * static_cast<std::int32_t>(w[p * kMixN + j]);
            }
            ++result.checked;
            if (c[i * kMixN + j] != ref) ++result.failed;
        }
    }
    return result;
}

}  // namespace

Samples pick_samples(cake::Rng& rng, const Inputs& in, const CallSpec& call)
{
    Samples samples;
    samples.rows = distinct(rng, call.m, kSampleRows);
    samples.cols = distinct(rng, call.n, kSampleCols);
    if (call.cls == CallClass::kF32ScaledBt) {
        const F32Call op = f32_operands(in, call);
        for (const index_t i : samples.rows) {
            for (const index_t j : samples.cols) {
                samples.c_old.push_back(op.c[i * op.ldc + j]);
            }
        }
    }
    return samples;
}

CheckResult check_call(const Inputs& in, const CallSpec& call,
                       const cake::CbBlockParams& params,
                       const Samples& samples)
{
    if (call.cls == CallClass::kI8Prepacked) return check_i8(in, call, samples);
    return check_f32(in, call, params, samples);
}

}  // namespace perfbench
