// common/json: the one parser and escaper behind bench records, tune
// caches, Chrome traces and fingerprint objects. Escape/parse round trips,
// \u decoding, the depth cap, one input per error code, and byte-identical
// re-serialisation of the committed bench baselines and of a tune cache.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "bench/bench_json.hpp"
#include "common/json.hpp"
#if !defined(CAKE_TUNE_DISABLED)
#include "tune/cache.hpp"
#endif

namespace cake {
namespace {

std::string read_file(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// The error code parse() reports for `text` ("" when it parses).
std::string error_code(const std::string& text)
{
    json::Value v;
    json::Error error;
    return json::parse(text, v, &error) ? "" : error.code;
}

TEST(Json, EveryByteRoundTripsThroughEscapeAndParse)
{
    std::string bytes;
    for (int b = 0x01; b <= 0xFF; ++b) bytes += static_cast<char>(b);
    const std::string escaped = json::escape(bytes);
    for (const char c : escaped) {
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << "raw control byte";
    }
    EXPECT_NE(escaped.find("\\n"), std::string::npos);
    EXPECT_NE(escaped.find("\\u001f"), std::string::npos);
    json::Value v;
    ASSERT_TRUE(json::parse("\"" + escaped + "\"", v));
    ASSERT_EQ(v.type, json::Value::Type::kString);
    EXPECT_EQ(v.string, bytes);
}

TEST(Json, UnicodeEscapesDecodeToUtf8AndSurrogatesAreRejected)
{
    json::Value v;
    ASSERT_TRUE(json::parse(R"("\u0041\u00e9\u20AC\/\b\f\r")", v));
    EXPECT_EQ(v.string, "A\xC3\xA9\xE2\x82\xAC/\b\f\r");
    json::Error error;
    EXPECT_FALSE(json::parse(R"("\ud800")", v, &error));
    EXPECT_STREQ(error.code, "JSON_ESCAPE");
    EXPECT_EQ(error_code(R"("\udc00x")"), "JSON_ESCAPE");
    EXPECT_EQ(error_code(R"("\u12")"), "JSON_ESCAPE");
}

TEST(Json, DepthCapAcceptsThirtyTwoAndRejectsThirtyThree)
{
    const auto nested = [](int depth) {
        return std::string(static_cast<std::size_t>(depth), '[')
            + std::string(static_cast<std::size_t>(depth), ']');
    };
    EXPECT_EQ(error_code(nested(json::kMaxDepth)), "");
    EXPECT_EQ(error_code(nested(json::kMaxDepth + 1)), "JSON_DEPTH");
    std::string objects;
    for (int i = 0; i <= json::kMaxDepth; ++i) objects += "{\"a\": ";
    EXPECT_EQ(error_code(objects), "JSON_DEPTH");
}

TEST(Json, EachErrorCodeHasAnInput)
{
    json::Value v;
    json::Error error;
    EXPECT_FALSE(json::parse("[1, 1-2+e]", v, &error));
    EXPECT_STREQ(error.code, "JSON_NUMBER");
    EXPECT_EQ(error.offset, 4u);
    EXPECT_EQ(error.message(),
              "JSON_NUMBER: malformed or non-finite number at byte 4");

    EXPECT_EQ(error_code("{\"a\" 1}"), "JSON_SYNTAX");
    EXPECT_EQ(error_code("{} x"), "JSON_SYNTAX");
    EXPECT_EQ(error_code("\"a\x01\""), "JSON_SYNTAX");
    EXPECT_EQ(error_code("[1,]"), "JSON_SYNTAX");
    EXPECT_EQ(error_code("tru"), "JSON_SYNTAX");
    EXPECT_EQ(error_code(std::string(40, '[')), "JSON_DEPTH");
    EXPECT_EQ(error_code("1e999"), "JSON_NUMBER");
    EXPECT_EQ(error_code("-"), "JSON_NUMBER");
    EXPECT_EQ(error_code(R"("\q")"), "JSON_ESCAPE");
}

TEST(Json, FindIsNullOnNonObjects)
{
    json::Value v;
    ASSERT_TRUE(json::parse(R"({"a": [1, true, null], "a": 2})", v));
    const json::Value* a = v.find("a");
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->type, json::Value::Type::kArray);  // first member wins
    EXPECT_EQ(a->find("a"), nullptr);
    EXPECT_EQ(v.find("b"), nullptr);
    std::ostringstream os;
    json::write(v, os);
    EXPECT_EQ(os.str(), R"({"a": [1, true, null], "a": 2})");
}

TEST(Json, CommittedBaselinesReserialiseByteIdentically)
{
    int files = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(CAKE_BASELINE_DIR)) {
        if (entry.path().extension() != ".json") continue;
        ++files;
        const std::string bytes = read_file(entry.path().string());
        bench::BenchRecord record;
        std::string error;
        ASSERT_TRUE(bench::parse_bench_json(bytes, &record, &error))
            << entry.path() << ": " << error;
        std::ostringstream os;
        bench::write_bench_json(record, os);
        EXPECT_EQ(os.str(), bytes) << entry.path();
    }
    EXPECT_GE(files, 2);
}

#if !defined(CAKE_TUNE_DISABLED)
TEST(Json, TuneCacheSaveLoadSaveIsByteIdentical)
{
    tune::TunedEntry e;
    e.fingerprint = "brand \"quoted\" \\ slash|avx2|c4|bw:12.5";
    e.dtype = "f32";
    e.elem_bytes = 4;
    e.bucket_m = e.bucket_n = e.bucket_k = 512;
    e.tuned_shape = {500, 510, 520};
    e.plan.p = 4;
    e.plan.mc = 96;
    e.plan.alpha = 1.0 / 3.0;
    e.plan.schedule = ScheduleKind::kKFirstNoFlip;
    e.plan.exec = CakeExec::kPipelined;
    e.measured_gflops = 123.456789012345678;
    e.rel_error_bound = 1.25e-5;
    tune::TuneCache cache;
    cache.upsert(e);
    e.dtype = "f64";
    e.elem_bytes = 8;
    e.plan = {};
    cache.upsert(e);

    const auto dir = std::filesystem::temp_directory_path();
    const std::string first = (dir / "cake_json_test_a.json").string();
    const std::string second = (dir / "cake_json_test_b.json").string();
    ASSERT_TRUE(tune::save_cache(cache, first));
    const tune::CacheLoadResult loaded = tune::load_cache(first);
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.cache.entries.size(), 2u);
    EXPECT_EQ(loaded.cache.entries[0].fingerprint, e.fingerprint);
    ASSERT_TRUE(tune::save_cache(loaded.cache, second));
    EXPECT_EQ(read_file(second), read_file(first));
    std::remove(first.c_str());
    std::remove(second.c_str());
}
#endif

}  // namespace
}  // namespace cake
