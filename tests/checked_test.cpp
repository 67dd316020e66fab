// Negative-path tests for the CAKE_CHECKED instrumentation layer: each
// test provokes one class of memory fault the instrumentation exists to
// catch — out-of-bounds span access, pack-buffer overrun into a canary
// guard, misaligned kernel operands — and asserts the trap fires with the
// right diagnostic. A throwing trap handler is installed per-test so the
// trap surfaces as a catchable CheckedError instead of an abort.
//
// In release builds (CAKE_CHECKED off) the instrumentation compiles away
// entirely, so every test here skips.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <string>
#include <vector>

#include "common/aligned.hpp"
#include "common/checked.hpp"
#include "core/cake_gemm_int8.hpp"
#include "kernel/microkernel.hpp"
#include "pack/pack.hpp"

namespace cake {
namespace {

#if !CAKE_CHECKED_ENABLED

TEST(CheckedTest, DisabledInThisBuild)
{
    GTEST_SKIP()
        << "CAKE_CHECKED instrumentation is compiled out of this build; "
           "configure with -DCAKE_CHECKED=ON to run the trap tests";
}

#else  // CAKE_CHECKED_ENABLED

void throwing_handler(const char* kind, const std::string& message)
{
    throw CheckedError(std::string(kind) + ": " + message);
}

/// Installs the throwing trap handler for one test, restoring the
/// previous handler (abort semantics) on scope exit.
class ScopedThrowingTraps {
public:
    ScopedThrowingTraps()
        : previous_(checked::set_trap_handler(&throwing_handler))
    {
    }
    ~ScopedThrowingTraps() { checked::set_trap_handler(previous_); }

private:
    checked::TrapHandler previous_;
};

std::string trap_message(const std::function<void()>& provoke)
{
    try {
        provoke();
    } catch (const CheckedError& e) {
        return e.what();
    }
    return "";
}

TEST(CheckedTest, SpanIndexOutOfBoundsTraps)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(8, /*zero=*/true);
    Span<float> s = make_span(buf.data(), buf.size(), "test span");
    EXPECT_NO_THROW(s[0]);
    EXPECT_NO_THROW(s[7]);
    EXPECT_THROW(s[8], CheckedError);
    EXPECT_THROW(s[-1], CheckedError);
    const std::string msg = trap_message([&] { (void)s[12]; });
    EXPECT_NE(msg.find("test span"), std::string::npos) << msg;
    EXPECT_NE(msg.find("12"), std::string::npos) << msg;
}

TEST(CheckedTest, SpanSliceOutOfBoundsTraps)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    Span<float> s = make_span(buf.data(), buf.size(), "test span");
    EXPECT_NO_THROW((void)span_slice(s, 8, 8));
    EXPECT_THROW((void)span_slice(s, 8, 9), CheckedError);
    EXPECT_THROW((void)span_slice(s, -1, 4), CheckedError);
    EXPECT_THROW((void)span_slice(s, 4, -1), CheckedError);
}

TEST(CheckedTest, FreshBufferIsPoisoned)
{
    AlignedBuffer<float> f32(32);
    AlignedBuffer<double> f64(32);
    AlignedBuffer<int> i32(32);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_TRUE(checked::is_poison(f32[i])) << "f32[" << i << "]";
        EXPECT_TRUE(checked::is_poison(f64[i])) << "f64[" << i << "]";
        EXPECT_TRUE(checked::is_poison(i32[i])) << "i32[" << i << "]";
    }
    // The float poisons are NaN payloads: arithmetic on an unpacked
    // element cannot silently produce a plausible number.
    EXPECT_TRUE(std::isnan(f32[0]));
    EXPECT_TRUE(std::isnan(f64[0]));

    AlignedBuffer<float> zeroed(32, /*zero=*/true);
    for (std::size_t i = 0; i < 32; ++i) {
        EXPECT_EQ(zeroed[i], 0.0f);
        EXPECT_FALSE(checked::is_poison(zeroed[i]));
    }
}

TEST(CheckedTest, BufferOverrunTripsBackCanary)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    EXPECT_NO_THROW(buf.verify_canaries("intact buffer"));
    buf.data()[16] = 1.0f;  // one element past the payload: back guard
    const std::string msg =
        trap_message([&] { buf.verify_canaries("victim buffer"); });
    EXPECT_NE(msg.find("victim buffer"), std::string::npos) << msg;
    EXPECT_NE(msg.find("overrun"), std::string::npos) << msg;
}

TEST(CheckedTest, BufferUnderrunTripsFrontCanary)
{
    ScopedThrowingTraps traps;
    AlignedBuffer<float> buf(16, /*zero=*/true);
    buf.data()[-1] = 1.0f;  // one element before the payload: front guard
    const std::string msg =
        trap_message([&] { buf.verify_canaries("victim buffer"); });
    EXPECT_NE(msg.find("underrun"), std::string::npos) << msg;
}

TEST(CheckedTest, UndersizedPackBufferIsCaughtByCanary)
{
    ScopedThrowingTraps traps;
    // pack_a_panel writes packed_a_size(mc, kc, mr) elements; hand it a
    // buffer 8 floats short and the tail of the pack lands in the back
    // guard (the 64-byte guard absorbs the 32-byte overrun, so this is
    // safe to execute and deterministically detected on verify).
    const index_t mc = 12, kc = 8, mr = 6;
    const index_t need = packed_a_size(mc, kc, mr);
    ASSERT_EQ(need, 96);
    AlignedBuffer<float> a(static_cast<std::size_t>(mc * kc), /*zero=*/true);
    AlignedBuffer<float> packed(static_cast<std::size_t>(need - 8));
    pack_a_panel(a.data(), /*lda=*/kc, mc, kc, mr, packed.data());
    EXPECT_THROW(packed.verify_canaries("undersized packed-A"),
                 CheckedError);
}

TEST(CheckedTest, MisalignedScratchTileTraps)
{
    ScopedThrowingTraps traps;
    const MicroKernel k = scalar_microkernel();
    const index_t kc = 4;
    AlignedBuffer<float> a(static_cast<std::size_t>(k.mr * kc), true);
    AlignedBuffer<float> b(static_cast<std::size_t>(k.nr * kc), true);
    AlignedBuffer<float> c(static_cast<std::size_t>(k.mr * k.nr), true);
    AlignedBuffer<float> scratch(
        static_cast<std::size_t>(k.mr * k.nr) + 16, true);
    // Aligned scratch: runs clean (edge tile m = mr - 1 forces its use).
    EXPECT_NO_THROW(run_microkernel_tile(k, kc, a.data(), b.data(), c.data(),
                                         k.nr, k.mr - 1, k.nr, 1.0f, 0.0f,
                                         scratch.data()));
    // Knock the scratch pointer off 64-byte alignment by one element.
    const std::string msg = trap_message([&] {
        run_microkernel_tile(k, kc, a.data(), b.data(), c.data(), k.nr,
                             k.mr - 1, k.nr, 1.0f, 0.0f, scratch.data() + 1);
    });
    EXPECT_NE(msg.find("misaligned"), std::string::npos) << msg;
    EXPECT_NE(msg.find("scratch"), std::string::npos) << msg;
}

TEST(CheckedTest, BadCTileGeometryTraps)
{
    ScopedThrowingTraps traps;
    const MicroKernel k = scalar_microkernel();
    const index_t kc = 4;
    AlignedBuffer<float> a(static_cast<std::size_t>(k.mr * kc), true);
    AlignedBuffer<float> b(static_cast<std::size_t>(k.nr * kc), true);
    AlignedBuffer<float> c(static_cast<std::size_t>(k.mr * k.nr), true);
    AlignedBuffer<float> scratch(static_cast<std::size_t>(k.mr * k.nr), true);
    // ldc smaller than the tile width: rows would overlap.
    EXPECT_THROW(run_microkernel_tile(k, kc, a.data(), b.data(), c.data(),
                                      k.nr - 1, k.mr, k.nr, 1.0f, 0.0f,
                                      scratch.data()),
                 CheckedError);
    // Null packed operand.
    EXPECT_THROW(run_microkernel_tile(k, kc,
                                      static_cast<const float*>(nullptr),
                                      b.data(), c.data(), k.nr, k.mr, k.nr,
                                      1.0f, 0.0f, scratch.data()),
                 CheckedError);
}

TEST(CheckedTest, RequireExtentTraps)
{
    ScopedThrowingTraps traps;
    EXPECT_NO_THROW(require_extent(0, 10, 10, "exact fit"));
    EXPECT_THROW(require_extent(1, 10, 10, "off the end"), CheckedError);
    EXPECT_THROW(require_extent(-1, 2, 10, "negative start"), CheckedError);
}

TEST(CheckedTest, Int8PackedPanelOutOfRangeTraps)
{
    // The s8 weights share PackedB's bounds-checked panel() accessor: a
    // K-block index one past the packed grid traps instead of returning a
    // pointer past the storage.
    ScopedThrowingTraps traps;
    ThreadPool pool(2);
    const index_t k = 70, n = 50;
    std::vector<std::int8_t> b(static_cast<std::size_t>(k * n), 1);
    CakeGemmInt8 gemm(pool);
    const PackedBInt8 packed = gemm.pack_weights(b.data(), n, k, n);
    const index_t kb = ceil_div(k, packed.params().k_blk);
    EXPECT_NO_THROW((void)packed.panel(kb - 1, 0));
    const std::string msg = trap_message([&] { (void)packed.panel(kb, 0); });
    EXPECT_NE(msg.find("pre-packed B panel"), std::string::npos) << msg;
}

#endif  // CAKE_CHECKED_ENABLED

}  // namespace
}  // namespace cake
