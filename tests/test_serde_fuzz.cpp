/// Robustness of deserialization against corrupt and adversarial input:
/// random bytes, random mutations of valid images, and truncations must all
/// throw cleanly (std::invalid_argument / std::out_of_range / logic_error),
/// never crash or hang — a sketch arriving over the network is untrusted
/// input in the §3 merging architecture. Covers both the legacy per-class
/// format (frequent_items_sketch::deserialize) and the unified envelope
/// (restore_summary), whose descriptor-driven dispatch multiplies the
/// attack surface: every instantiation's decoder must reject hostility.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/builder.h"
#include "api/summary_bytes.h"
#include "common/bytes.h"
#include "core/frequent_items_sketch.h"
#include "random/xoshiro.h"
#include "stream/generators.h"

namespace freq {
namespace {

using sketch_u64 = frequent_items_sketch<std::uint64_t, std::uint64_t>;

std::vector<std::uint8_t> valid_image() {
    sketch_u64 s(sketch_config{.max_counters = 64, .seed = 1});
    zipf_stream_generator gen({.num_updates = 20'000, .num_distinct = 2'000, .seed = 2});
    s.consume(gen.generate());
    return s.serialize();
}

bool try_deserialize(const std::vector<std::uint8_t>& bytes) {
    try {
        // The acceptance bound is the untrusted-input API: a mutated
        // capacity field must be rejected before any allocation.
        const auto s = sketch_u64::deserialize(bytes.data(), bytes.size(), 1u << 16);
        // If it parsed, basic invariants must hold.
        EXPECT_LE(s.num_counters(), s.capacity());
        return true;
    } catch (const std::invalid_argument&) {
        return false;
    } catch (const std::out_of_range&) {
        return false;
    } catch (const std::logic_error&) {
        return false;
    } catch (const std::bad_alloc&) {
        ADD_FAILURE() << "deserialize allocated past the acceptance bound";
        return false;
    }
}

TEST(SerdeFuzz, RandomBytesNeverCrash) {
    xoshiro256ss rng(1);
    for (int trial = 0; trial < 2'000; ++trial) {
        std::vector<std::uint8_t> junk(rng.below(200));
        for (auto& b : junk) {
            b = static_cast<std::uint8_t>(rng());
        }
        try_deserialize(junk);  // must not crash; outcome irrelevant
    }
}

TEST(SerdeFuzz, EveryTruncationOfValidImageThrows) {
    const auto image = valid_image();
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(), image.begin() + len);
        EXPECT_FALSE(try_deserialize(cut)) << "truncation at " << len << " parsed";
    }
}

TEST(SerdeFuzz, SingleByteMutationsNeverCrash) {
    const auto image = valid_image();
    xoshiro256ss rng(3);
    for (int trial = 0; trial < 3'000; ++trial) {
        auto mutated = image;
        const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
        mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        try_deserialize(mutated);  // parsed-or-thrown both fine; no crash
    }
}

TEST(SerdeFuzz, MultiByteMutationsNeverCrash) {
    const auto image = valid_image();
    xoshiro256ss rng(4);
    for (int trial = 0; trial < 1'000; ++trial) {
        auto mutated = image;
        const auto flips = 1 + rng.below(16);
        for (std::uint64_t f = 0; f < flips; ++f) {
            mutated[rng.below(mutated.size())] = static_cast<std::uint8_t>(rng());
        }
        try_deserialize(mutated);
    }
}

TEST(SerdeFuzz, ValidImageStillParsesAfterFuzzRuns) {
    // Sanity: the fuzz helpers themselves must accept the genuine image.
    EXPECT_TRUE(try_deserialize(valid_image()));
}

// --- the unified envelope ----------------------------------------------------

/// The richest wire image the envelope produces: a windowed *text* summary
/// (policy state + epoch ring + spelling dictionary), ticked so several
/// epochs are live.
std::vector<std::uint8_t> valid_envelope() {
    auto s = builder().text_keys().max_counters(64).sliding_window(3).build();
    xoshiro256ss rng(7);
    for (int epoch = 0; epoch < 4; ++epoch) {
        for (int i = 0; i < 5'000; ++i) {
            s.update("item" + std::to_string(rng.below(500)), 1.0 + rng.below(9));
        }
        if (epoch < 3) {
            s.tick();
        }
    }
    return std::move(s.save()).take();
}

bool try_restore(const std::vector<std::uint8_t>& bytes) {
    try {
        // Tight acceptance bound: a mutated capacity field must be rejected
        // before any allocation.
        const auto s = restore_summary(bytes, 1u << 16);
        EXPECT_LE(s.num_counters(),
                  s.capacity() * std::max(1u, s.descriptor().sketch.window_epochs));
        return true;
    } catch (const std::invalid_argument&) {
        return false;
    } catch (const std::out_of_range&) {
        return false;
    } catch (const std::logic_error&) {
        return false;
    } catch (const std::bad_alloc&) {
        ADD_FAILURE() << "restore_summary allocated past the acceptance bound";
        return false;
    }
}

TEST(EnvelopeFuzz, RandomBytesNeverCrash) {
    xoshiro256ss rng(21);
    for (int trial = 0; trial < 2'000; ++trial) {
        std::vector<std::uint8_t> junk(rng.below(300));
        for (auto& b : junk) {
            b = static_cast<std::uint8_t>(rng());
        }
        try_restore(junk);  // must not crash; outcome irrelevant
    }
}

TEST(EnvelopeFuzz, EveryTruncationOfValidEnvelopeThrows) {
    const auto image = valid_envelope();
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(), image.begin() + len);
        EXPECT_FALSE(try_restore(cut)) << "truncation at " << len << " parsed";
    }
}

TEST(EnvelopeFuzz, SingleByteMutationsNeverCrash) {
    const auto image = valid_envelope();
    xoshiro256ss rng(23);
    for (int trial = 0; trial < 3'000; ++trial) {
        auto mutated = image;
        const auto pos = static_cast<std::size_t>(rng.below(mutated.size()));
        mutated[pos] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        try_restore(mutated);  // parsed-or-thrown both fine; no crash
    }
}

TEST(EnvelopeFuzz, MultiByteMutationsNeverCrash) {
    const auto image = valid_envelope();
    xoshiro256ss rng(24);
    for (int trial = 0; trial < 1'000; ++trial) {
        auto mutated = image;
        const auto flips = 1 + rng.below(16);
        for (std::uint64_t f = 0; f < flips; ++f) {
            mutated[rng.below(mutated.size())] = static_cast<std::uint8_t>(rng());
        }
        try_restore(mutated);
    }
}

TEST(EnvelopeFuzz, HeaderTagMutationsRouteOrRejectCleanly) {
    // Flipping the four descriptor tag bytes re-routes the body to another
    // instantiation's decoder; each must parse fully or throw cleanly.
    const auto image = valid_envelope();
    for (std::size_t pos = 5; pos <= 8; ++pos) {
        for (int v = 0; v < 256; ++v) {
            auto mutated = image;
            mutated[pos] = static_cast<std::uint8_t>(v);
            try_restore(mutated);
        }
    }
}

TEST(EnvelopeFuzz, ValidEnvelopeStillParsesAfterFuzzRuns) {
    EXPECT_TRUE(try_restore(valid_envelope()));
}

TEST(EnvelopeFuzz, AlgorithmTagByteMutationsRejectOrRouteCleanly) {
    // Byte 10 is the algorithm tag. On a legacy-minor paper image any
    // nonzero value must be rejected (reserved-bytes rule); on a minor-2
    // baseline image out-of-range tags and tag/body mismatches must throw
    // typed errors, never reinterpret the body.
    auto paper = builder().max_counters(64).seed(3).build();
    paper.update(std::uint64_t{1}, 4.0);
    const auto paper_image = std::move(paper.save()).take();
    ASSERT_EQ(paper_image[10], 0u);
    for (int v = 1; v < 256; ++v) {
        auto mutated = paper_image;
        mutated[10] = static_cast<std::uint8_t>(v);
        EXPECT_FALSE(try_restore(mutated)) << "legacy image with tag " << v << " parsed";
    }

    auto ss = builder().algorithm(algo::space_saving).max_counters(64).build();
    ss.update(std::uint64_t{1}, 4.0);
    const auto ss_image = std::move(ss.save()).take();
    ASSERT_EQ(ss_image[10], static_cast<std::uint8_t>(algo::space_saving));
    for (int v = 0; v < 256; ++v) {
        auto mutated = ss_image;
        mutated[10] = static_cast<std::uint8_t>(v);
        if (v == static_cast<int>(algo::space_saving)) {
            EXPECT_TRUE(try_restore(mutated));
        } else if (v == static_cast<int>(algo::paper)) {
            try_restore(mutated);  // re-routed to the paper decoder, whose
                                   // own body validation decides; no crash
        } else {
            // Out-of-range tags and mismatched baseline decoders (whose
            // body layouts differ structurally) must throw typed errors.
            EXPECT_FALSE(try_restore(mutated))
                << "space_saving body parsed under tag " << v;
        }
    }
}

TEST(SerdeFuzz, AcceptanceBoundRejectsOversizedCapacity) {
    sketch_u64 big(sketch_config{.max_counters = 1u << 12, .seed = 1});
    big.update(1, 5);
    const auto image = big.serialize();
    // Default bound accepts it; a tight caller bound rejects it cleanly.
    EXPECT_NO_THROW(sketch_u64::deserialize(image.data(), image.size()));
    EXPECT_THROW(sketch_u64::deserialize(image.data(), image.size(), /*max=*/1u << 10),
                 std::invalid_argument);
}

// --- per-shard dictionary envelopes (minor 1 segmented images) ---------------

using text_sketch = string_frequent_items<double>;

/// Appends one dictionary segment in the envelope's layout: dict_n u32,
/// then (fp u64, len u32, bytes) per entry in ascending fingerprint order.
void put_segment(byte_writer& w, const text_sketch& s) {
    std::vector<std::pair<std::uint64_t, std::string>> entries;
    s.dictionary().for_each([&](std::uint64_t fp, const std::string& spelling) {
        entries.emplace_back(fp, spelling);
    });
    std::sort(entries.begin(), entries.end());
    w.put_u32(static_cast<std::uint32_t>(entries.size()));
    for (const auto& [fp, spelling] : entries) {
        w.put_u64(fp);
        w.put_u32(static_cast<std::uint32_t>(spelling.size()));
        w.put_bytes(spelling.data(), spelling.size());
    }
}

/// A minor-1 image whose dictionary ships as one segment per source: the
/// canonical image of \p folded with its single-segment dictionary tail
/// replaced by segment_count = |sources| and one segment per source.
std::vector<std::uint8_t> segmented_image(const text_sketch& folded,
                                          const std::vector<const text_sketch*>& sources) {
    byte_writer tail;
    tail.put_u32(1);
    put_segment(tail, folded);
    const std::size_t canonical_tail = std::move(tail).take().size();

    auto bytes = envelope_save(folded).take();
    bytes.resize(bytes.size() - canonical_tail);
    byte_writer segments;
    segments.put_u32(static_cast<std::uint32_t>(sources.size()));
    for (const text_sketch* source : sources) {
        put_segment(segments, *source);
    }
    const auto appended = std::move(segments).take();
    bytes.insert(bytes.end(), appended.begin(), appended.end());
    return bytes;
}

/// Two "shard" summaries over disjoint-ish vocabularies plus their fold,
/// saved with one dictionary segment per shard.
struct sharded_fixture {
    // k = 128 > the 70-word vocabulary: every word stays tracked, so the
    // union/normalization checks below are deterministic.
    text_sketch a{sketch_config{.max_counters = 128, .seed = 5}};
    text_sketch b{sketch_config{.max_counters = 128, .seed = 5}};
    text_sketch folded{sketch_config{.max_counters = 128, .seed = 5}};

    sharded_fixture() {
        for (int i = 0; i < 300; ++i) {
            a.update("alpha" + std::to_string(i % 30), 2.0);
            b.update("beta" + std::to_string(i % 40), 3.0);
        }
        folded.merge(a);
        folded.merge(b);
    }

    std::vector<std::uint8_t> segmented_bytes() const { return segmented_image(folded, {&a, &b}); }
};

TEST(ShardedDictEnvelope, SegmentedImageRestoresToTheUnion) {
    const sharded_fixture fx;
    const auto bytes = fx.segmented_bytes();
    auto restored = restore_summary(bytes);
    EXPECT_EQ(restored.descriptor().keys, key_kind::text);
    // Counters come from the fold; spellings from the unioned segments.
    EXPECT_DOUBLE_EQ(restored.total_weight(), fx.folded.total_weight());
    for (const auto& r : fx.folded.top_items(20)) {
        EXPECT_DOUBLE_EQ(restored.estimate(r.item), fx.folded.estimate(r.item)) << r.item;
    }
    std::size_t spelled = 0;
    for (const auto& r : restored.top_items(64)) {
        spelled += r.item != "<unknown>";
    }
    EXPECT_GT(spelled, 40u);  // both shards' vocabularies are identified
}

TEST(ShardedDictEnvelope, RestoreNormalizesToTheCanonicalImage) {
    const sharded_fixture fx;
    // Same state, two wire forms: per-shard segments vs the canonical
    // single-segment union.
    const auto segmented = fx.segmented_bytes();
    const auto canonical = envelope_save(fx.folded);
    EXPECT_NE(segmented, canonical.bytes());
    auto restored = restore_summary(segmented);
    EXPECT_TRUE(restored.save() == canonical) << "restore did not normalize";
}

TEST(ShardedDictEnvelope, SegmentCountFieldIsBounded) {
    const sharded_fixture fx;
    const auto segmented = fx.segmented_bytes();
    const auto canonical = envelope_save(fx.folded).bytes();
    // The two images share header + counters and first diverge at the
    // segment_count u32 (1 vs 2).
    std::size_t pos = 0;
    while (pos < segmented.size() && pos < canonical.size() &&
           segmented[pos] == canonical[pos]) {
        ++pos;
    }
    ASSERT_LT(pos + 4, segmented.size());
    auto hostile = segmented;
    for (int i = 0; i < 4; ++i) {
        hostile[pos + static_cast<std::size_t>(i)] = 0xff;  // segment_count = 2^32-1
    }
    EXPECT_FALSE(try_restore(hostile)) << "unbounded segment count parsed";
}

TEST(ShardedDictEnvelope, TruncationsAndMutationsNeverCrash) {
    const sharded_fixture fx;
    const auto image = fx.segmented_bytes();
    for (std::size_t len = 0; len < image.size(); ++len) {
        std::vector<std::uint8_t> cut(image.begin(), image.begin() + len);
        EXPECT_FALSE(try_restore(cut)) << "truncation at " << len << " parsed";
    }
    xoshiro256ss rng(31);
    for (int trial = 0; trial < 3'000; ++trial) {
        auto mutated = image;
        mutated[rng.below(mutated.size())] ^= static_cast<std::uint8_t>(1 + rng.below(255));
        try_restore(mutated);  // parsed-or-thrown both fine; no crash
    }
}

TEST(ShardedDictEnvelope, LegacyMinorZeroImagesStillRestore) {
    // A pre-bump (minor 0) image is the canonical image minus the
    // segment_count framing, with the minor byte zeroed. Build one
    // surgically and restore it.
    text_sketch s(sketch_config{.max_counters = 32, .seed = 2});
    s.update("legacy", 5.0);
    s.update("image", 7.0);
    auto bytes = envelope_save(s).take();

    // Locate segment_count: the canonical dictionary tail is
    // [segment_count=1 u32][dict_n=2 u32][2 entries of (fp u64, len u32, bytes)].
    std::size_t tail = 4 + 4;
    for (const char* word : {"legacy", "image"}) {
        tail += 8 + 4 + std::char_traits<char>::length(word);
    }
    ASSERT_GT(bytes.size(), tail);
    const std::size_t seg_pos = bytes.size() - tail;
    ASSERT_EQ(bytes[seg_pos], 1u);  // little-endian segment_count == 1
    bytes.erase(bytes.begin() + static_cast<std::ptrdiff_t>(seg_pos),
                bytes.begin() + static_cast<std::ptrdiff_t>(seg_pos) + 4);
    bytes[9] = 0;  // minor version byte (after magic u32 | ver | 4 tag bytes)

    const auto wrapped = summary_bytes::wrap(bytes);
    EXPECT_EQ(wrapped.minor_version(), 0u);
    auto restored = restore_summary(wrapped);
    EXPECT_DOUBLE_EQ(restored.estimate("legacy"), 5.0);
    EXPECT_DOUBLE_EQ(restored.estimate("image"), 7.0);
    const auto rows = restored.top_items(2);
    ASSERT_EQ(rows.size(), 2u);
    EXPECT_EQ(rows[0].item, "image");
    EXPECT_EQ(rows[1].item, "legacy");
    // Re-saving upgrades to the framed-dictionary minor. (Not the *current*
    // minor: writers emit the lowest minor whose layout they need, so paper
    // text images stay at the segmented-dictionary version.)
    EXPECT_EQ(restored.save().minor_version(), summary_bytes::text_dictionary_minor);
}

TEST(ShardedDictEnvelope, FutureMinorVersionsAreRejected) {
    const sharded_fixture fx;
    auto bytes = fx.segmented_bytes();
    bytes[9] = summary_bytes::current_minor_version + 1;
    EXPECT_FALSE(try_restore(bytes)) << "unknown minor version parsed";
}

}  // namespace
}  // namespace freq
