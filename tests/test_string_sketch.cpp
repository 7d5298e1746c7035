#include "core/string_frequent_items.h"

#include <gtest/gtest.h>

#include <string>

#include "random/xoshiro.h"
#include "random/zipf.h"

namespace freq {
namespace {

TEST(StringSketch, BasicUpdateAndEstimate) {
    string_frequent_items<double> s(64);
    s.update("network", 2.5);
    s.update("stream", 1.0);
    s.update("network", 0.5);
    EXPECT_DOUBLE_EQ(s.estimate("network"), 3.0);
    EXPECT_DOUBLE_EQ(s.estimate("stream"), 1.0);
    EXPECT_DOUBLE_EQ(s.estimate("absent"), 0.0);
    EXPECT_DOUBLE_EQ(s.total_weight(), 4.0);
}

TEST(StringSketch, FrequentItemsCarrySpellings) {
    string_frequent_items<double> s(16);
    for (int i = 0; i < 100; ++i) {
        s.update("alpha", 10.0);
        s.update("beta", 5.0);
        s.update("gamma", 1.0);
    }
    const auto rows = s.frequent_items(error_type::no_false_negatives, 100.0);
    ASSERT_GE(rows.size(), 2u);
    EXPECT_EQ(rows[0].item, "alpha");
    EXPECT_EQ(rows[1].item, "beta");
    EXPECT_DOUBLE_EQ(rows[0].estimate, 1000.0);
}

TEST(StringSketch, TfIdfStyleRealWeights) {
    // The §1.2 motivation: words weighted by tf-idf scores (real values).
    string_frequent_items<double> s(32);
    const std::pair<const char*, double> doc[] = {
        {"the", 0.01}, {"sketch", 4.2}, {"the", 0.01}, {"frequent", 3.7},
        {"items", 3.1}, {"the", 0.01},  {"sketch", 4.2}};
    for (const auto& [word, w] : doc) {
        s.update(word, w);
    }
    EXPECT_GT(s.estimate("sketch"), s.estimate("the"));
    EXPECT_NEAR(s.estimate("sketch"), 8.4, 1e-9);
}

TEST(StringSketch, BoundsBracketTruthUnderEviction) {
    string_frequent_items<std::uint64_t> s(32, /*seed=*/5);
    std::unordered_map<std::string, std::uint64_t> truth;
    xoshiro256ss rng(7);
    zipf_distribution zipf(2'000, 1.2);
    for (int i = 0; i < 60'000; ++i) {
        std::string word = "w";  // +=: gcc 12 -Wrestrict FP on "w" + to_string (PR105329)
        word += std::to_string(zipf(rng));
        s.update(word, 1);
        truth[word] += 1;
    }
    for (const auto& [word, f] : truth) {
        ASSERT_LE(s.lower_bound(word), f) << word;
        ASSERT_GE(s.upper_bound(word), f) << word;
    }
}

TEST(StringSketch, DictionaryIsPrunedUnderChurn) {
    // Stream many distinct strings through a tiny sketch: the dictionary
    // must stay O(k), not O(distinct).
    string_frequent_items<std::uint64_t> s(16);
    for (int i = 0; i < 50'000; ++i) {
        s.update("unique_" + std::to_string(i), 1);
    }
    // 16 counters, dictionary pruned at 4x capacity: memory stays small.
    EXPECT_LT(s.memory_bytes(), 64u * 1024u);
}

// --- the detachable spelling_dictionary component ----------------------------

TEST(SpellingDictionary, NotesAndFindsFirstWriterWins) {
    spelling_dictionary<std::string> d(16);
    EXPECT_FALSE(d.note(1, "alpha"));
    EXPECT_FALSE(d.note(1, "impostor"));  // first spelling wins
    ASSERT_NE(d.find(1), nullptr);
    EXPECT_EQ(*d.find(1), "alpha");
    EXPECT_EQ(d.find(2), nullptr);
    EXPECT_TRUE(d.contains(1));
    EXPECT_EQ(d.size(), 1u);
}

TEST(SpellingDictionary, SignalsOverBudgetAndPrunesUntracked) {
    spelling_dictionary<std::string> d(2);  // budget = 8
    EXPECT_EQ(d.prune_limit(), 8u);
    bool over = false;
    for (std::uint64_t fp = 1; fp <= 9; ++fp) {
        std::string word = "w";  // +=: gcc 12 -Wrestrict FP on "w" + to_string (PR105329)
        word += std::to_string(fp);
        over = d.note(fp, std::move(word));
    }
    EXPECT_TRUE(over);
    EXPECT_TRUE(d.over_budget());
    // Only even fingerprints are still "tracked": the sweep keeps exactly
    // those.
    d.prune([](std::uint64_t fp) { return fp % 2 == 0; });
    EXPECT_EQ(d.size(), 4u);
    EXPECT_FALSE(d.over_budget());
    EXPECT_TRUE(d.contains(2));
    EXPECT_FALSE(d.contains(3));
}

TEST(SpellingDictionary, MergeUnionKeepsFirstSpelling) {
    spelling_dictionary<std::string> a(8);
    spelling_dictionary<std::string> b(8);
    a.note(1, "mine");
    b.note(1, "theirs");
    b.note(2, "only_b");
    EXPECT_FALSE(a.merge_union(b));
    EXPECT_EQ(*a.find(1), "mine");
    EXPECT_EQ(*a.find(2), "only_b");
    EXPECT_EQ(a.size(), 2u);
}

TEST(SpellingDictionary, CopiesAreDeepAndCopyAssignKeepsContents) {
    // Keys longer than the small-string buffer, so a shallow copy would
    // share heap bytes with the source.
    auto key_of = [](std::uint64_t i) {
        std::string key = "spelling-key-";  // +=: see the gcc 12 note above
        key += std::to_string(i);
        key += "-padding-beyond-sso";
        return key;
    };
    spelling_dictionary<std::string> a(64);
    for (std::uint64_t i = 0; i < 50; ++i) {
        a.note(i, key_of(i));
    }
    spelling_dictionary<std::string> copy(a);
    a.prune([](std::uint64_t) { return false; });  // empties the source
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(copy.size(), 50u);
    for (std::uint64_t i = 0; i < 50; ++i) {
        ASSERT_NE(copy.find(i), nullptr);
        EXPECT_EQ(*copy.find(i), key_of(i));
    }
    // Repeated copy-assign into one target (the engine's snapshot fold
    // reuses its clones this way) leaves it equal to the source each time.
    spelling_dictionary<std::string> target(64);
    for (int round = 0; round < 10; ++round) {
        target = copy;
        EXPECT_EQ(target.size(), 50u);
    }
    for (std::uint64_t i = 0; i < 50; ++i) {
        ASSERT_NE(target.find(i), nullptr);
        EXPECT_EQ(*target.find(i), key_of(i));
    }
}

TEST(StringSketch, CopyTrackedIntoKeepsOnlyTrackedSpellings) {
    // 40 one-shot words through 16 counters: most get evicted, but their
    // spellings stay until the dictionary outgrows its 64-entry budget.
    string_frequent_items<std::uint64_t> s(16);
    for (int i = 0; i < 40; ++i) {
        std::string word = "once_";  // +=: see the gcc 12 note above
        word += std::to_string(i);
        s.update(word, 1);
        std::string heavy = "heavy_";
        heavy += std::to_string(i % 4);
        s.update(heavy, 10);
    }
    // A reused target: its earlier spellings must not survive the copy.
    string_frequent_items<std::uint64_t> out(16);
    out.update("stale", 1);
    s.copy_tracked_into(out);

    std::size_t tracked = 0;
    s.dictionary().for_each([&](std::uint64_t fp, const std::string& spelling) {
        const std::string* kept = out.dictionary().find(fp);
        if (s.lower_bound(spelling) > 0) {
            ++tracked;
            ASSERT_NE(kept, nullptr) << spelling;
            EXPECT_EQ(*kept, spelling);
        } else {
            EXPECT_EQ(kept, nullptr) << spelling;
        }
    });
    ASSERT_GT(s.dictionary().size(), tracked) << "no untracked spelling to leave out";
    EXPECT_EQ(out.dictionary().size(), tracked);
    EXPECT_EQ(out.dictionary().find(fnv1a64("stale")), nullptr);
    EXPECT_EQ(out.dictionary().prune_limit(), s.dictionary().prune_limit());
    EXPECT_EQ(out.total_weight(), s.total_weight());
    const auto want = s.top_items(16);
    const auto got = out.top_items(16);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i].item, want[i].item) << "row " << i;
        EXPECT_EQ(got[i].lower_bound, want[i].lower_bound) << "row " << i;
        EXPECT_EQ(got[i].upper_bound, want[i].upper_bound) << "row " << i;
    }
}

TEST(StringSketch, FrequentItemsCarryFingerprints) {
    // The fingerprint/dictionary split exposes the counted fingerprint on
    // every row — the id the engine routes by.
    string_frequent_items<double> s(16);
    s.update("alpha", 10.0);
    const auto rows = s.top_items(1);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_EQ(rows[0].fingerprint, fnv1a64("alpha"));
}

TEST(StringSketch, FrequentItemsSortedByEstimate) {
    string_frequent_items<std::uint64_t> s(8);
    s.update("big", 100);
    s.update("mid", 50);
    s.update("small", 10);
    const auto rows = s.frequent_items(error_type::no_false_positives, 5);
    ASSERT_EQ(rows.size(), 3u);
    EXPECT_EQ(rows[0].item, "big");
    EXPECT_EQ(rows[1].item, "mid");
    EXPECT_EQ(rows[2].item, "small");
    for (const auto& r : rows) {
        EXPECT_LE(r.lower_bound, r.upper_bound);
    }
}

}  // namespace
}  // namespace freq
