/**
 * @file
 * Steady-state allocation test for the serving hot loop.
 *
 * PR 8's scratch-hoisting contract: once the batch is formed and the
 * per-platform kernel memos are warm, a decode iteration performs
 * ZERO heap allocations - the chunk plans, context refills and
 * advance/retire passes all run in preallocated storage. This test
 * instruments the global allocator (this binary only) and counts
 * allocations across a long no-retirement decode window.
 *
 * Constructing a ServingSim allocates only its per-batch scratch, so
 * the same probe bounds its bytes: per-replica state must not grow
 * back into a fixed per-simulator table (64 replicas each holding
 * one would dominate a fleet's resident memory).
 *
 * The platform kernel memos key on (context sum, batch size), which
 * change every iteration, so a first run over the workload warms
 * them; the counted run replays the identical iteration sequence and
 * must hit those memos without inserting.
 *
 * The same probe pins sim::EventQueue's allocation contract: an empty
 * queue owns no storage, and once a pass has sized its key heap,
 * callback slab and free list, an identical pass allocates nothing.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/serving_engine.hh"
#include "llm/model_config.hh"
#include "sim/event_queue.hh"

namespace {

// ----------------------------------------------- allocator probe

bool g_counting = false;
std::uint64_t g_allocCount = 0;
std::uint64_t g_allocBytes = 0;

} // namespace

void *
operator new(std::size_t size)
{
    if (g_counting) {
        ++g_allocCount;
        g_allocBytes += size;
    }
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return ::operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace papi::core;
namespace llm = papi::llm;

/** A uniform all-at-once batch: every request retires together at
 *  the far end, leaving a long pure-decode window in the middle. */
std::vector<llm::TimedRequest>
uniformStream(std::uint32_t count, std::uint32_t input_len,
              std::uint32_t output_len)
{
    std::vector<llm::TimedRequest> reqs(count);
    for (std::uint32_t i = 0; i < count; ++i) {
        reqs[i].request.id = i + 1;
        reqs[i].request.inputLen = input_len;
        reqs[i].request.outputLen = output_len;
        reqs[i].arrivalSeconds = 0.0;
    }
    return reqs;
}

TEST(ServingZeroAlloc, SteadyStateDecodeDoesNotAllocate)
{
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs = uniformStream(16, 256, 512);

    ServingOptions opt;
    opt.maxRlp = 16;

    // Warm-up run: walks the exact iteration sequence the counted
    // run will take, populating the platform kernel memos for every
    // (batch size, context sum) the window visits.
    {
        ServingSim warm(papi, {}, model, opt);
        for (const auto &tr : reqs)
            warm.deliver(tr);
        while (warm.canStep())
            warm.step();
        (void)warm.finish();
    }

    // Counted run: form the batch, let early iterations size the
    // scratch, then count a long mid-stream window - far from both
    // the admission wave and the retirement wave.
    ServingSim sim(papi, {}, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    for (int i = 0; i < 10; ++i) {
        ASSERT_TRUE(sim.canStep());
        sim.step();
    }
    ASSERT_TRUE(sim.hasActive());

    g_allocCount = 0;
    g_counting = true;
    for (int i = 0; i < 400; ++i)
        sim.step();
    g_counting = false;

    EXPECT_TRUE(sim.hasActive()); // still mid-decode: no retirement
    EXPECT_EQ(g_allocCount, 0u)
        << "steady-state decode iterations touched the heap";

    while (sim.canStep())
        sim.step();
    ServingResult r = sim.finish();
    EXPECT_EQ(r.tokensGenerated, 16ull * 512ull);
}

TEST(ServingZeroAlloc, ChunkedSteadyStateDecodeDoesNotAllocate)
{
    // Same contract on the chunked-prefill path once prefill has
    // drained: the all-decoding fast path plans from the context
    // sum and reuses every scratch vector.
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    const auto reqs = uniformStream(16, 256, 512);

    ServingOptions opt;
    opt.maxRlp = 16;
    opt.prefillChunkTokens = 128;

    {
        ServingSim warm(papi, {}, model, opt);
        for (const auto &tr : reqs)
            warm.deliver(tr);
        while (warm.canStep())
            warm.step();
        (void)warm.finish();
    }

    ServingSim sim(papi, {}, model, opt);
    for (const auto &tr : reqs)
        sim.deliver(tr);
    // 16 requests x 256 prompt tokens / 128-token chunks = 32
    // prefill iterations; step well past them before counting.
    for (int i = 0; i < 50; ++i) {
        ASSERT_TRUE(sim.canStep());
        sim.step();
    }
    ASSERT_TRUE(sim.hasActive());

    g_allocCount = 0;
    g_counting = true;
    for (int i = 0; i < 300; ++i)
        sim.step();
    g_counting = false;

    EXPECT_TRUE(sim.hasActive());
    EXPECT_EQ(g_allocCount, 0u)
        << "steady-state chunked iterations touched the heap";

    while (sim.canStep())
        sim.step();
    ServingResult r = sim.finish();
    EXPECT_EQ(r.tokensGenerated, 16ull * 512ull);
}

TEST(ServingZeroAlloc, ConstructionStaysUnderAllocationBudget)
{
    Platform papi(makePapiConfig());
    const llm::ModelConfig model = llm::llama65b();
    ServingOptions opt;
    opt.maxRlp = 16;

    g_allocCount = 0;
    g_allocBytes = 0;
    g_counting = true;
    {
        ServingSim sim(papi, {}, model, opt);
        g_counting = false;
        EXPECT_FALSE(sim.hasActive());
    }
    g_counting = false;
    EXPECT_LT(g_allocBytes, 64u * 1024u)
        << "constructing a maxRlp = 16 ServingSim allocated "
        << g_allocBytes << " bytes in " << g_allocCount << " blocks";
}

// ----------------------------------------------- sim::EventQueue

TEST(ServingZeroAlloc, EventQueueConstructionDoesNotAllocate)
{
    g_allocCount = 0;
    g_counting = true;
    papi::sim::EventQueue eq;
    g_counting = false;
    EXPECT_EQ(g_allocCount, 0u) << "an empty EventQueue allocated";

    // Use the queue, so its construction cannot be optimized away.
    bool ran = false;
    eq.schedule(1000, [&ran] { ran = true; });
    eq.run();
    EXPECT_TRUE(ran);
}

/**
 * One link of an event chain, exactly EventCallback::inlineCapacity
 * bytes. Each link runs its successor inline on every other step
 * when EventQueue::tryRunInline accepts, and schedules it otherwise.
 */
struct ChainLink
{
    papi::sim::EventQueue *q;
    std::uint64_t *sum;
    std::uint64_t *inlined;
    std::uint64_t remaining;
    std::uint64_t pad[2];

    void
    operator()() const
    {
        ChainLink link = *this;
        for (;;) {
            *link.sum += link.q->now() + link.pad[0];
            if (link.remaining == 0)
                return;
            --link.remaining;
            if (link.remaining % 2 == 1 &&
                link.q->tryRunInline(link.q->now() + 1, 0)) {
                ++*link.inlined;
                continue;
            }
            link.q->schedule(link.q->now() + 10, link);
            return;
        }
    }
};
static_assert(sizeof(ChainLink) ==
              papi::sim::EventCallback::inlineCapacity);

TEST(ServingZeroAlloc, EventQueueSteadyStateDoesNotAllocate)
{
    papi::sim::EventQueue eq;
    std::uint64_t sum = 0;
    std::uint64_t inlined = 0;
    // Three interleaved chains: a link's inline successor at now+1
    // is accepted only because the other chains' events lie later.
    const auto pass = [&] {
        for (std::uint64_t c = 0; c < 3; ++c)
            eq.schedule(eq.now() + 3 * c,
                        ChainLink{&eq, &sum, &inlined, 400, {c, 0}});
        eq.run();
    };

    pass(); // warm-up: sizes the key heap, slab and free list
    const std::uint64_t warm_inlined = inlined;
    const std::uint64_t warm_executed = eq.executed();

    g_allocCount = 0;
    g_counting = true;
    pass();
    g_counting = false;

    EXPECT_EQ(g_allocCount, 0u)
        << "a steady-state EventQueue pass touched the heap";
    EXPECT_GT(warm_inlined, 0u);
    EXPECT_EQ(inlined, 2 * warm_inlined);
    EXPECT_EQ(eq.executed(), 2 * warm_executed);
    EXPECT_TRUE(eq.empty());
}

} // namespace
