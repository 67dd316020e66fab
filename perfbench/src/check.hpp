// Output check of one public-API call, made outside the timed interval.
//
// f32 calls: sampled rows x columns of C are compared against a
// double-precision reference. An element fails when
//   |C - ref| > rel_bound * (|alpha| sum_k |a_ik||b_kj| + |beta||c_old|),
// the Higham denominator scaled by the plan's static bound
// (cake::plan_error_bound). int8 calls: the sampled elements must equal an
// exact int32 reference.
#pragma once

#include <vector>

#include "common/rng.hpp"
#include "core/tiling.hpp"
#include "workload.hpp"

namespace perfbench {

/// Sampled C positions of one call (every row x every column), plus the
/// pre-call C values at them for calls that read C (beta != 0).
struct Samples {
    std::vector<index_t> rows, cols;
    std::vector<double> c_old;  ///< rows.size() x cols.size(), row-major
};

/// Distinct rows and columns drawn from `rng`, at most 4 x 8. Records the
/// pre-call C at them when `call` reads C.
Samples pick_samples(cake::Rng& rng, const Inputs& in, const CallSpec& call);

struct CheckResult {
    index_t checked = 0;  ///< elements compared
    index_t failed = 0;   ///< elements outside the bound
    double worst = 0;     ///< max |err| / allowed error (0 for int8)
};

/// Compare the sampled outputs of `call` (which ran with CB geometry
/// `params`) against the reference.
CheckResult check_call(const Inputs& in, const CallSpec& call,
                       const cake::CbBlockParams& params,
                       const Samples& samples);

}  // namespace perfbench
