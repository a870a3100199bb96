/**
 * @file
 * SmallVector: the inline-storage vector the prediction hot path uses
 * to avoid per-event allocations. These tests pin down the spill
 * (inline -> heap), re-spill after clear(), copy/move semantics, and
 * equality — the operations MetadataBundle and the frontend exercise.
 */

#include <cstdint>
#include <limits>
#include <utility>

#include <gtest/gtest.h>

#include "common/small_vector.hpp"

using cobra::SmallVector;

TEST(SmallVector, StaysInlineUpToCapacity)
{
    SmallVector<int, 4> v;
    EXPECT_TRUE(v.empty());
    for (int i = 0; i < 4; ++i)
        v.push_back(i);
    EXPECT_EQ(v.size(), 4u);
    for (int i = 0; i < 4; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, SpillsToHeapAndKeepsContents)
{
    SmallVector<int, 4> v;
    for (int i = 0; i < 100; ++i)
        v.push_back(i);
    ASSERT_EQ(v.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i);
}

TEST(SmallVector, ClearKeepsCapacityAndAllowsRespill)
{
    SmallVector<std::uint64_t, 2> v;
    for (std::uint64_t i = 0; i < 10; ++i)
        v.push_back(i);
    v.clear();
    EXPECT_TRUE(v.empty());
    // Refill through the inline region into the retained heap buffer.
    for (std::uint64_t i = 0; i < 10; ++i)
        v.push_back(i * 3);
    ASSERT_EQ(v.size(), 10u);
    for (std::uint64_t i = 0; i < 10; ++i)
        EXPECT_EQ(v[i], i * 3);
}

TEST(SmallVector, AssignAndResize)
{
    SmallVector<int, 4> v;
    v.assign(3, 7);
    ASSERT_EQ(v.size(), 3u);
    EXPECT_EQ(v[0], 7);
    EXPECT_EQ(v[2], 7);

    v.assign(9, 2);
    ASSERT_EQ(v.size(), 9u);
    EXPECT_EQ(v[8], 2);

    v.resize(2);
    ASSERT_EQ(v.size(), 2u);
    EXPECT_EQ(v[1], 2);

    v.resize(6);
    ASSERT_EQ(v.size(), 6u);
    EXPECT_EQ(v[5], 0);
}

TEST(SmallVector, CopyPreservesBothStorageModes)
{
    SmallVector<int, 4> inlineV;
    inlineV.push_back(1);
    inlineV.push_back(2);
    SmallVector<int, 4> inlineCopy(inlineV);
    EXPECT_EQ(inlineCopy, inlineV);

    SmallVector<int, 4> heapV;
    for (int i = 0; i < 20; ++i)
        heapV.push_back(i);
    SmallVector<int, 4> heapCopy(heapV);
    EXPECT_EQ(heapCopy, heapV);

    heapCopy[3] = 99;
    EXPECT_NE(heapCopy, heapV); // deep copy, not aliased
}

TEST(SmallVector, CopyAssignOverwrites)
{
    SmallVector<int, 2> a;
    a.push_back(5);
    SmallVector<int, 2> b;
    for (int i = 0; i < 8; ++i)
        b.push_back(i);
    a = b;
    EXPECT_EQ(a, b);
    b = SmallVector<int, 2>{};
    EXPECT_TRUE(b.empty());
}

TEST(SmallVector, MoveStealsHeapBuffer)
{
    SmallVector<int, 2> src;
    for (int i = 0; i < 16; ++i)
        src.push_back(i);
    const int* heap = src.data();
    SmallVector<int, 2> dst(std::move(src));
    EXPECT_EQ(dst.size(), 16u);
    EXPECT_EQ(dst.data(), heap); // buffer moved, not copied
    EXPECT_TRUE(src.empty());    // NOLINT: inspecting moved-from state
}

TEST(SmallVector, IterationAndFrontBack)
{
    SmallVector<int, 4> v;
    for (int i = 1; i <= 3; ++i)
        v.push_back(i);
    int sum = 0;
    for (int x : v)
        sum += x;
    EXPECT_EQ(sum, 6);
    EXPECT_EQ(v.front(), 1);
    EXPECT_EQ(v.back(), 3);
}

TEST(SmallVector, EqualityComparesLengthAndContents)
{
    SmallVector<int, 4> a, b;
    a.push_back(1);
    b.push_back(1);
    EXPECT_EQ(a, b);
    b.push_back(2);
    EXPECT_NE(a, b);
    a.push_back(3);
    EXPECT_NE(a, b);
}

TEST(SmallVector, BoolSpecialisationWorks)
{
    // std::vector<bool> cannot back a data() pointer; SmallVector
    // must handle plain bools (the frontend's pushedBits).
    SmallVector<bool, 8> v;
    for (int i = 0; i < 12; ++i)
        v.push_back(i % 3 == 0);
    ASSERT_EQ(v.size(), 12u);
    for (int i = 0; i < 12; ++i)
        EXPECT_EQ(v[static_cast<std::size_t>(i)], i % 3 == 0);
}

namespace {

/** A payload with non-zero default member initialisers, the shape of
 *  exec::DynInst (whose seq defaults to kInvalidSeq). */
struct Tagged
{
    std::uint64_t seq = std::numeric_limits<std::uint64_t>::max();
    int weight = 7;

    bool operator==(const Tagged& o) const
    {
        return seq == o.seq && weight == o.weight;
    }
};

/** True when every element of @p v is a default Tagged. */
template <std::size_t N>
bool
allDefault(const SmallVector<Tagged, N>& v)
{
    for (const Tagged& t : v) {
        if (!(t == Tagged{}))
            return false;
    }
    return true;
}

/** Fill @p v with 0..n-1. */
template <std::size_t N>
void
fill(SmallVector<int, N>& v, int n)
{
    v.clear();
    for (int i = 0; i < n; ++i)
        v.push_back(i);
}

/** True when @p v holds exactly 0..n-1. */
template <std::size_t N>
bool
holdsIota(const SmallVector<int, N>& v, int n)
{
    if (v.size() != static_cast<std::size_t>(n))
        return false;
    for (int i = 0; i < n; ++i) {
        if (v[static_cast<std::size_t>(i)] != i)
            return false;
    }
    return true;
}

/** The three storage states a moved-from vector can be in. */
enum class Shape
{
    Inline,             ///< Never spilled.
    Spilled,            ///< Contents on the heap.
    SpilledThenShrunk,  ///< Back inline, heap buffer retained.
};

/** A vector of 4-inline ints holding 0..n-1 in @p shape; sets @p n. */
SmallVector<int, 4>
makeShaped(Shape shape, int& n)
{
    SmallVector<int, 4> v;
    switch (shape) {
      case Shape::Inline:
        n = 3;
        fill(v, n);
        break;
      case Shape::Spilled:
        n = 11;
        fill(v, n);
        break;
      case Shape::SpilledThenShrunk:
        fill(v, 11);
        n = 2;
        v.resize(static_cast<std::size_t>(n));
        break;
    }
    return v;
}

} // namespace

TEST(SmallVector, DefaultMemberInitialisersSurviveEveryGrowth)
{
    SmallVector<Tagged, 4> sized(3);
    EXPECT_EQ(sized.size(), 3u);
    EXPECT_TRUE(allDefault(sized));

    SmallVector<Tagged, 4> grown;
    grown.resize(2);
    EXPECT_TRUE(allDefault(grown));
    grown.resize(9); // Across the inline -> heap boundary.
    ASSERT_EQ(grown.size(), 9u);
    EXPECT_TRUE(allDefault(grown));

    SmallVector<Tagged, 4> assigned;
    assigned.assign(6);
    ASSERT_EQ(assigned.size(), 6u);
    EXPECT_TRUE(allDefault(assigned));

    SmallVector<Tagged, 4> pushed;
    pushed.push_back(Tagged{});
    EXPECT_TRUE(allDefault(pushed));
}

TEST(SmallVector, ResizeGrowthValueInitialisesOverStaleElements)
{
    // Inline: the slots regained by growing held 1 and 2 before.
    SmallVector<int, 4> v;
    fill(v, 3);
    v.resize(1);
    v.resize(4);
    ASSERT_EQ(v.size(), 4u);
    EXPECT_EQ(v[0], 0);
    EXPECT_EQ(v[1], 0);
    EXPECT_EQ(v[2], 0);
    EXPECT_EQ(v[3], 0);

    // Heap: clear() keeps the dirty buffer that growth reuses.
    SmallVector<int, 4> h;
    for (int i = 0; i < 12; ++i)
        h.push_back(100 + i);
    h.clear();
    h.resize(12);
    ASSERT_EQ(h.size(), 12u);
    for (int x : h)
        EXPECT_EQ(x, 0);

    // A Tagged vector dirtied in place regrows to defaults.
    SmallVector<Tagged, 2> t(5);
    for (Tagged& e : t)
        e = Tagged{1, 1};
    t.resize(1);
    t.resize(5);
    EXPECT_EQ(t[0], (Tagged{1, 1}));
    for (std::size_t i = 1; i < t.size(); ++i)
        EXPECT_EQ(t[i], Tagged{});
}

TEST(SmallVector, AssignOverwritesEveryElement)
{
    SmallVector<int, 4> v;
    fill(v, 10);
    v.assign(10);
    ASSERT_EQ(v.size(), 10u);
    for (int x : v)
        EXPECT_EQ(x, 0);

    v.assign(3, 9); // Back inline, retained heap buffer.
    ASSERT_EQ(v.size(), 3u);
    for (int x : v)
        EXPECT_EQ(x, 9);

    v.assign(7, 4); // Re-spill into the retained buffer.
    ASSERT_EQ(v.size(), 7u);
    for (int x : v)
        EXPECT_EQ(x, 4);
}

TEST(SmallVector, MoveKeepsExactlySizeAndEmptiesTheSource)
{
    for (Shape shape :
         {Shape::Inline, Shape::Spilled, Shape::SpilledThenShrunk}) {
        SCOPED_TRACE(static_cast<int>(shape));
        int n = 0;

        SmallVector<int, 4> src = makeShaped(shape, n);
        SmallVector<int, 4> constructed(std::move(src));
        EXPECT_TRUE(holdsIota(constructed, n));
        EXPECT_TRUE(src.empty()); // NOLINT: inspecting moved-from state
        // The moved-from source stays usable.
        fill(src, 6);
        EXPECT_TRUE(holdsIota(src, 6));

        // Move-assign over a spilled target and over an inline one.
        for (int targetSize : {9, 1}) {
            SmallVector<int, 4> from = makeShaped(shape, n);
            SmallVector<int, 4> to;
            for (int i = 0; i < targetSize; ++i)
                to.push_back(-1);
            to = std::move(from);
            EXPECT_TRUE(holdsIota(to, n));
            EXPECT_TRUE(from.empty()); // NOLINT: moved-from state
            // The target grows on from what it took.
            to.resize(static_cast<std::size_t>(n) + 8);
            for (int i = 0; i < n; ++i)
                EXPECT_EQ(to[static_cast<std::size_t>(i)], i);
            for (std::size_t i = static_cast<std::size_t>(n);
                 i < to.size(); ++i)
                EXPECT_EQ(to[i], 0);
        }
    }
}

TEST(SmallVector, SelfAssignmentKeepsContents)
{
    for (Shape shape :
         {Shape::Inline, Shape::Spilled, Shape::SpilledThenShrunk}) {
        SCOPED_TRACE(static_cast<int>(shape));
        int n = 0;
        SmallVector<int, 4> v = makeShaped(shape, n);
        SmallVector<int, 4>& alias = v;
        v = alias;
        EXPECT_TRUE(holdsIota(v, n));
        v = std::move(alias);
        EXPECT_TRUE(holdsIota(v, n));
    }
}
