#include "gpusim/recorder.hh"

#include <cstdint>
#include <cstring>
#include <exception>
#include <memory>

#if !defined(__x86_64__)
#include <ucontext.h>
#endif
#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#include "support/logging.hh"

#if defined(__x86_64__)
/*
 * rodinia_gpusim_fiber_switch(saveSp, loadSp): push the SysV
 * callee-saved state (rbp, rbx, r12-r15, then MXCSR and the x87
 * control word in one 8-byte slot), store rsp into *saveSp, load rsp
 * from loadSp, pop the state saved there and return into that
 * context. Caller-saved registers are the compiler's to spill around
 * the call, so this is the whole switch: no signal mask, no syscall.
 * Every context switched out has the same frame layout, so the CFI
 * stays right across the rsp swap.
 *
 * rodinia_gpusim_fiber_entry: where a new fiber's first switch
 * returns to. Its initial frame holds the body in r13 and the body's
 * argument in r12; the body never returns (it switches away when
 * done). rip is marked undefined so unwinders stop here.
 */
extern "C" void rodinia_gpusim_fiber_switch(void **saveSp, void *loadSp);
extern "C" void rodinia_gpusim_fiber_entry();

__asm__(R"(
    .pushsection .text
    .p2align 4
    .globl rodinia_gpusim_fiber_switch
    .hidden rodinia_gpusim_fiber_switch
    .type rodinia_gpusim_fiber_switch, @function
rodinia_gpusim_fiber_switch:
    .cfi_startproc
    pushq %rbp
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbp, 0
    pushq %rbx
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %rbx, 0
    pushq %r12
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r12, 0
    pushq %r13
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r13, 0
    pushq %r14
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r14, 0
    pushq %r15
    .cfi_adjust_cfa_offset 8
    .cfi_rel_offset %r15, 0
    subq $8, %rsp
    .cfi_adjust_cfa_offset 8
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    .cfi_adjust_cfa_offset -8
    popq %r15
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r15
    popq %r14
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r14
    popq %r13
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r13
    popq %r12
    .cfi_adjust_cfa_offset -8
    .cfi_restore %r12
    popq %rbx
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbx
    popq %rbp
    .cfi_adjust_cfa_offset -8
    .cfi_restore %rbp
    ret
    .cfi_endproc
    .size rodinia_gpusim_fiber_switch, .-rodinia_gpusim_fiber_switch

    .p2align 4
    .globl rodinia_gpusim_fiber_entry
    .hidden rodinia_gpusim_fiber_entry
    .type rodinia_gpusim_fiber_entry, @function
rodinia_gpusim_fiber_entry:
    .cfi_startproc
    .cfi_undefined %rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size rodinia_gpusim_fiber_entry, .-rodinia_gpusim_fiber_entry
    .popsection
)");
#endif

namespace rodinia {
namespace gpusim {

namespace {

constexpr size_t fiberStackBytes = 128 * 1024;
constexpr uint64_t sharedBase = 0x10000;
/**
 * Runaway-kernel guard. Sized for the streamed LaneStream encoding
 * (~3-5 B/event, so a maximal launch is ~1-1.5 GB): paper-scale
 * kmeans records ~90 M thread events in one launch and must fit.
 * Before streaming this was 80 M — the materialized 32 B GEvent
 * vectors made anything larger unaffordable.
 */
constexpr uint64_t maxEventsPerLaunch = 320ULL * 1000 * 1000;

/** Fiber switches made on this thread (see fiberSwitches()). */
thread_local uint64_t switchCount = 0;

/**
 * One context the recorder switches between: the scheduler (on the
 * caller's stack) or one thread's fiber. Under a sanitizer it also
 * carries what the sanitizer must be told about each switch.
 */
struct FiberContext
{
#if defined(__x86_64__)
    void *sp = nullptr; //!< saved stack pointer while switched out
#else
    ucontext_t uc;
    void (*entry)(void *) = nullptr;
    void *arg = nullptr;
#endif
#if defined(__SANITIZE_ADDRESS__)
    const void *stackBottom = nullptr;
    size_t stackSize = 0;
    void *fakeStack = nullptr;
#endif
#if defined(__SANITIZE_THREAD__)
    void *tsanFiber = nullptr;
#endif
};

#if !defined(__x86_64__)
/** makecontext passes int arguments only: the context arrives split
 *  into two 32-bit halves. */
void
ucontextEntry(unsigned hi, unsigned lo)
{
    auto *c = reinterpret_cast<FiberContext *>(
        uintptr_t((uint64_t(hi) << 32) | uint64_t(lo)));
    c->entry(c->arg);
}
#endif

/** Make @p c the context of the code running now (the scheduler). */
void
adoptCurrentContext([[maybe_unused]] FiberContext &c)
{
#if defined(__SANITIZE_THREAD__)
    c.tsanFiber = __tsan_get_current_fiber();
#endif
}

/**
 * Prepare @p c to run entry(arg) on @p stack when first switched to.
 * entry must never return; it switches away instead.
 */
void
prepareFiber(FiberContext &c, char *stack, size_t bytes,
             void (*entry)(void *), void *arg)
{
#if defined(__SANITIZE_ADDRESS__)
    c.stackBottom = stack;
    c.stackSize = bytes;
#endif
#if defined(__SANITIZE_THREAD__)
    c.tsanFiber = __tsan_create_fiber(0);
#endif
#if defined(__x86_64__)
    // The initial frame, in the switch's pop order. MXCSR and the x87
    // control word start as the creator's; the body starts at the
    // SysV call alignment (rsp + 8 a multiple of 16 at its entry).
    uint32_t mxcsr = 0;
    uint16_t fcw = 0;
    __asm__ volatile("stmxcsr %0" : "=m"(mxcsr));
    __asm__ volatile("fnstcw %0" : "=m"(fcw));
    const uint64_t frame[8] = {
        uint64_t(mxcsr) | uint64_t(fcw) << 32,
        0, // r15
        0, // r14
        uint64_t(reinterpret_cast<uintptr_t>(entry)), // r13
        uint64_t(reinterpret_cast<uintptr_t>(arg)),   // r12
        0,                                            // rbx
        0, // rbp: ends frame-pointer walks
        uint64_t(reinterpret_cast<uintptr_t>(&rodinia_gpusim_fiber_entry)),
    };
    uintptr_t top = (uintptr_t(stack) + bytes) & ~uintptr_t(15);
    void *sp = reinterpret_cast<void *>(top - sizeof(frame));
    std::memcpy(sp, frame, sizeof(frame));
    c.sp = sp;
#else
    if (getcontext(&c.uc) != 0)
        panic("getcontext failed");
    c.uc.uc_stack.ss_sp = stack;
    c.uc.uc_stack.ss_size = bytes;
    c.uc.uc_link = nullptr;
    c.entry = entry;
    c.arg = arg;
    uint64_t bits = uint64_t(reinterpret_cast<uintptr_t>(&c));
    makecontext(&c.uc, reinterpret_cast<void (*)()>(ucontextEntry), 2,
                unsigned(bits >> 32), unsigned(bits));
#endif
}

/** Release what prepareFiber() acquired; @p c must not be running. */
void
releaseFiber([[maybe_unused]] FiberContext &c)
{
#if defined(__SANITIZE_THREAD__)
    if (c.tsanFiber)
        __tsan_destroy_fiber(c.tsanFiber);
#endif
}

/**
 * First call of a fiber's body, just after its first switch in:
 * completes the switch and learns the stack of the scheduler (@p
 * from), which the fiber switches back to.
 */
void
enterFiber([[maybe_unused]] FiberContext &from)
{
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(nullptr, &from.stackBottom,
                                    &from.stackSize);
#endif
}

/**
 * Suspend @p from and resume @p to; returns when something switches
 * back to @p from.
 */
void
switchFiber(FiberContext &from, FiberContext &to)
{
    ++switchCount;
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_start_switch_fiber(&from.fakeStack, to.stackBottom,
                                   to.stackSize);
#endif
#if defined(__SANITIZE_THREAD__)
    __tsan_switch_to_fiber(to.tsanFiber, 0);
#endif
#if defined(__x86_64__)
    rodinia_gpusim_fiber_switch(&from.sp, to.sp);
#else
    swapcontext(&from.uc, &to.uc);
#endif
#if defined(__SANITIZE_ADDRESS__)
    __sanitizer_finish_switch_fiber(from.fakeStack, nullptr, nullptr);
#endif
}

} // namespace

uint64_t
fiberSwitches()
{
    return switchCount;
}

/**
 * Executes the blocks of one launch, one after another, with the
 * threads of a block as fibers, giving real barrier and shared-memory
 * semantics while recording per-lane traces. Fiber t runs thread t
 * of every block: it parks after each block, so its stack and its
 * sanitizer state are set up once per launch, not once per thread.
 * Stacks are not zero-filled: a fiber writes its frames before it
 * reads them, and pages it never touches are never faulted in.
 *
 * Exceptions: a fiber's body catches everything its kernel throws.
 * The first error stops the block's schedule; every suspended fiber
 * is then resumed once more so that barrier() throws Abandon through
 * it, running its destructors, and run() rethrows the error on the
 * caller's stack. No switch happens while an exception is in flight
 * or being handled: the runtime's caught-exception stack belongs to
 * the OS thread, not the fiber.
 */
class BlockRunner
{
  public:
    BlockRunner(const LaunchConfig &launch, const Kernel &kernel)
        : launch(launch), kernel(kernel), fibers(size_t(launch.blockDim)),
          builders(size_t(launch.blockDim))
    {
        adoptCurrentContext(sched);
        for (Fiber &f : fibers) {
            f.stack = std::make_unique_for_overwrite<char[]>(fiberStackBytes);
            prepareFiber(f.ctx, f.stack.get(), fiberStackBytes, fiberMain,
                         this);
        }
    }

    BlockRunner(const BlockRunner &) = delete;
    BlockRunner &operator=(const BlockRunner &) = delete;

    /** Run block @p block_idx of the launch to completion. */
    BlockRecord run(int block_idx);

    /** Fiber-yielding barrier, called from KernelCtx::sync(). */
    void
    barrier(int tid)
    {
        fibers[tid].atBarrier = true;
        switchFiber(fibers[tid].ctx, sched);
        if (abandoning)
            throw Abandon{};
    }

    /**
     * Order-stable per-block shared-memory allocator: every thread
     * performs the same allocation sequence; the first performer
     * creates the buffer, later threads attach by cursor.
     */
    void *
    sharedAlloc(size_t &cursor, size_t bytes, size_t align,
                uint64_t &base_addr)
    {
        if (cursor == allocs.size()) {
            SharedAllocation a;
            uint64_t aligned = (sharedTop + align - 1) / align * align;
            a.base = aligned;
            a.buf.assign(bytes, std::byte{0});
            sharedTop = aligned + bytes;
            allocs.push_back(std::move(a));
        }
        SharedAllocation &a = allocs[cursor];
        if (a.buf.size() != bytes)
            fatal("shared allocation sequence diverged across threads "
                  "(block ", blockIdx, ", alloc #", cursor, ")");
        base_addr = a.base;
        ++cursor;
        return a.buf.data();
    }

    /** Events committed by the launch's finished blocks. */
    uint64_t eventBudgetUsed = 0;

  private:
    /** Thrown by barrier() into a fiber abandoned after an error. */
    struct Abandon
    {
    };

    /**
     * A parked fiber holds only its body's loop frame, so releasing
     * it needs no last switch. (Under ASan with stack-use-after-
     * return detection, that would leave its fake stack unfreed;
     * the sanitizer lanes run without it.)
     */
    struct Fiber
    {
        Fiber() = default;
        ~Fiber() { releaseFiber(ctx); }
        Fiber(const Fiber &) = delete;
        Fiber &operator=(const Fiber &) = delete;

        FiberContext ctx;
        std::unique_ptr<char[]> stack;
        bool started = false; //!< has begun the current block
        bool done = false;    //!< has finished the current block
        bool atBarrier = false;
    };

    struct SharedAllocation
    {
        std::vector<std::byte> buf;
        uint64_t base = 0;
    };

    [[noreturn]] static void fiberMain(void *self);
    void resume(int tid);

    LaunchConfig launch;
    const Kernel &kernel;
    int blockIdx = 0;

    FiberContext sched;
    std::vector<Fiber> fibers;
    /** Thread t's lane builder between blocks: lent to its KernelCtx
     *  while a block records, returned to be sealed, and cleared for
     *  the next block with its capacity kept. */
    std::vector<LaneStream> builders;
    std::vector<std::unique_ptr<KernelCtx>> ctxs;
    int currentThread = 0;
    std::exception_ptr error; //!< first exception a kernel thread threw
    bool abandoning = false;

    std::vector<SharedAllocation> allocs;
    uint64_t sharedTop = sharedBase;
};

void
BlockRunner::fiberMain(void *arg)
{
    auto *self = static_cast<BlockRunner *>(arg);
    enterFiber(self->sched);
    for (;;) {
        const int tid = self->currentThread;
        try {
            self->kernel(*self->ctxs[tid]);
        } catch (const Abandon &) {
            // Unwound on request: another thread of the block failed.
        } catch (...) {
            if (!self->error)
                self->error = std::current_exception();
        }
        // Park until thread tid of the next block starts.
        self->fibers[tid].done = true;
        switchFiber(self->fibers[tid].ctx, self->sched);
    }
}

void
BlockRunner::resume(int tid)
{
    currentThread = tid;
    fibers[tid].started = true;
    switchFiber(sched, fibers[tid].ctx);
}

BlockRecord
BlockRunner::run(int block_idx)
{
    const int n = launch.blockDim;
    blockIdx = block_idx;
    allocs.clear();
    sharedTop = sharedBase;
    ctxs.clear();
    for (int t = 0; t < n; ++t) {
        ctxs.push_back(
            std::make_unique<KernelCtx>(this, t, blockIdx, launch));
        builders[size_t(t)].clear();
        ctxs.back()->events = std::move(builders[size_t(t)]);
        fibers[t].started = fibers[t].done = fibers[t].atBarrier = false;
    }

    // Scheduler: run every live, unblocked fiber in thread order;
    // when all live fibers sit at the barrier, release them together.
    while (!error) {
        bool all_done = true;
        for (int t = 0; t < n && !error; ++t) {
            Fiber &f = fibers[t];
            if (f.done || f.atBarrier) {
                all_done = all_done && f.done;
                continue;
            }
            resume(t);
            all_done = all_done && f.done;
        }
        if (all_done)
            break;
        // Every fiber is now done or at a barrier: release the phase.
        for (int t = 0; t < n; ++t)
            fibers[t].atBarrier = false;
    }

    if (error) {
        // Unwind every suspended fiber; fibers that have not started
        // this block hold no kernel frames.
        abandoning = true;
        for (int t = 0; t < n; ++t)
            while (fibers[t].started && !fibers[t].done)
                resume(t);
        std::rethrow_exception(error);
    }

    for (int t = 0; t < n; ++t) {
        ctxs[t]->flushPending();
        eventBudgetUsed += ctxs[t]->events.size();
        builders[size_t(t)] = std::move(ctxs[t]->events);
    }
    return BlockRecord(builders, sharedTop - sharedBase);
}

KernelCtx::KernelCtx(BlockRunner *runner, int tid, int block_idx,
                     const LaunchConfig &launch)
    : runner(runner), threadId(tid), blockId(block_idx), cfg(launch)
{
}

OrderKey
KernelCtx::currentKey(uint16_t event_pc) const
{
    OrderKey k = keyBase;
    if (pcInHi)
        k.hi |= uint64_t(event_pc) << pcShift;
    else
        k.lo |= uint64_t(event_pc) << pcShift;
    return k;
}

void
KernelCtx::recomputeKeyBase()
{
    uint16_t f[8] = {0, 0, 0, 0, 0, 0, 0, 0};
    int levels = loopDepth < 3 ? loopDepth : 3;
    for (int i = 0; i < levels; ++i) {
        f[2 * i] = uint16_t(loopStack[i] >> 16);
        f[2 * i + 1] = uint16_t(loopStack[i]);
    }
    keyBase.hi = (uint64_t(f[0]) << 48) | (uint64_t(f[1]) << 32) |
                 (uint64_t(f[2]) << 16) | uint64_t(f[3]);
    keyBase.lo = (uint64_t(f[4]) << 48) | (uint64_t(f[5]) << 32) |
                 (uint64_t(f[6]) << 16) | uint64_t(f[7]);
    // The event PC occupies slot 2*levels of the same layout.
    int slot = 2 * levels;
    pcInHi = slot < 4;
    pcShift = 48 - 16 * (slot & 3);
}

void
KernelCtx::pushLoop(uint16_t pc, uint32_t iter)
{
    if (loopDepth >= 8)
        fatal("LoopIter nesting deeper than 8");
    uint32_t it = iter + 1;
    if (it > 0xffff)
        it = 0xffff;
    loopStack[loopDepth++] = (uint32_t(pc) << 16) | it;
    recomputeKeyBase();
}

void
KernelCtx::popLoop()
{
    if (loopDepth <= 0)
        panic("LoopIter pop without push");
    --loopDepth;
    recomputeKeyBase();
}

void
KernelCtx::record(GOp op, Space space, uint64_t addr, uint32_t size,
                  const std::source_location &loc, uint32_t count)
{
    OrderKey key = currentKey(packPc(loc));
    if ((op == GOp::IntAlu || op == GOp::FpAlu) && hasPending &&
        pending.op == op && pending.key == key &&
        uint64_t(pending.count) + count <= 0xffffffffu) {
        // Merge only while the 32-bit repeat counter has room; a
        // kernel issuing >4G ALU ops at one site spills into a
        // fresh event instead of silently wrapping. The last event
        // lives in `pending` (not yet committed to the append-only
        // stream) precisely so this merge can mutate it.
        pending.count += count;
        return;
    }
    if (runner->eventBudgetUsed + events.size() + (hasPending ? 1 : 0) >
        maxEventsPerLaunch)
        fatal("kernel trace exceeds ", maxEventsPerLaunch,
              " events; reduce the problem size");
    flushPending();
    pending.key = key;
    pending.addr = addr;
    pending.size = size;
    pending.count = count;
    pending.op = op;
    pending.space = space;
    hasPending = true;
}

void
KernelCtx::sync(std::source_location loc)
{
    record(GOp::Sync, Space::None, 0, 0, loc);
    runner->barrier(threadId);
}

void *
KernelCtx::sharedAlloc(size_t bytes, size_t align, uint64_t &base_addr)
{
    return runner->sharedAlloc(sharedCursor, bytes, align, base_addr);
}

KernelRecording
recordKernel(const LaunchConfig &launch, const Kernel &kernel)
{
    if (launch.gridDim < 1 || launch.blockDim < 1)
        fatal("recordKernel: invalid launch geometry");

    KernelRecording rec;
    rec.launch = launch;
    rec.blocks.reserve(launch.gridDim);
    BlockRunner runner(launch, kernel);
    for (int b = 0; b < launch.gridDim; ++b)
        rec.blocks.push_back(runner.run(b));
    return rec;
}

BlockRecord::BlockRecord(const std::vector<LaneStream> &lanes,
                         uint64_t shared_bytes)
    : sharedBytes(shared_bytes), blockDim(int(lanes.size()))
{
    uint64_t bytes = 0;
    for (const LaneStream &lane : lanes)
        bytes += lane.encodedBytes();
    if (bytes > UINT32_MAX)
        fatal("a recorded block holds ", bytes,
              " encoded bytes; a sealed block holds at most 4 GiB");
    const size_t n = lanes.size();
    const size_t total = size_t(wordCount(n, bytes));
    words = std::make_unique_for_overwrite<uint32_t[]>(total);
    if (total > 2 * n)
        words[total - 1] = 0; // the payload's padding bytes
    auto *out = reinterpret_cast<uint8_t *>(words.get() + 2 * n);
    uint32_t end = 0;
    for (size_t l = 0; l < n; ++l) {
        const LaneStream &lane = lanes[l];
        if (!lane.empty())
            std::memcpy(out + end, lane.data(), lane.encodedBytes());
        end += uint32_t(lane.encodedBytes());
        words[l] = end;
        words[n + l] = uint32_t(lane.size());
    }
}

namespace {

/** Call fn on every event of every lane of @p rec, in lane order. */
template <typename Fn>
void
forEachEvent(const KernelRecording &rec, Fn &&fn)
{
    GEvent e;
    for (const auto &block : rec.blocks)
        for (int l = 0; l < block.blockDim; ++l)
            for (LaneStream::Cursor c = block.lane(l); c.next(e);)
                fn(e);
}

} // namespace

uint64_t
KernelRecording::threadInstructions() const
{
    uint64_t n = 0;
    forEachEvent(*this, [&](const GEvent &e) {
        n += e.op == GOp::Sync ? 1 : e.count;
    });
    return n;
}

std::vector<uint64_t>
KernelRecording::memOpsBySpace() const
{
    std::vector<uint64_t> out(size_t(Space::Local) + 1, 0);
    forEachEvent(*this, [&](const GEvent &e) {
        if (e.op == GOp::Load || e.op == GOp::Store)
            out[size_t(e.space)] += 1;
    });
    return out;
}

uint64_t
KernelRecording::encodedBytes() const
{
    uint64_t n = 0;
    for (const auto &block : blocks)
        n += block.encodedBytes();
    return n;
}

uint64_t
KernelRecording::allocatedBytes() const
{
    uint64_t n = blocks.size() * sizeof(BlockRecord);
    for (const auto &block : blocks)
        n += block.allocatedBytes();
    return n;
}

uint64_t
LaunchSequence::threadInstructions() const
{
    uint64_t n = 0;
    for (const auto &l : launches)
        n += l.threadInstructions();
    return n;
}

uint64_t
LaunchSequence::encodedBytes() const
{
    uint64_t n = 0;
    for (const auto &l : launches)
        n += l.encodedBytes();
    return n;
}

uint64_t
LaunchSequence::allocatedBytes() const
{
    uint64_t n = 0;
    for (const auto &l : launches)
        n += l.allocatedBytes();
    return n;
}

std::vector<uint64_t>
LaunchSequence::memOpsBySpace() const
{
    std::vector<uint64_t> out(size_t(Space::Local) + 1, 0);
    for (const auto &l : launches) {
        auto v = l.memOpsBySpace();
        for (size_t i = 0; i < out.size(); ++i)
            out[i] += v[i];
    }
    return out;
}

namespace {

/**
 * splitmix64-style word mixer. Recordings run to tens of millions of
 * events, and byte-at-a-time FNV-1a over them costs seconds per
 * process; this absorbs a 64-bit word in a handful of ALU ops while
 * still diffusing every input bit across the state. Deterministic
 * and platform-independent, which is all the store key needs.
 */
inline uint64_t
mixWord(uint64_t h, uint64_t v)
{
    uint64_t x = h + 0x9e3779b97f4a7c15ull + v;
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

uint64_t
contentHash(const KernelRecording &rec)
{
    uint64_t h = 0x6a09e667f3bcc908ull; // arbitrary fixed seed
    h = mixWord(h, uint64_t(rec.launch.gridDim));
    h = mixWord(h, uint64_t(rec.launch.blockDim));
    h = mixWord(h, uint64_t(rec.blocks.size()));
    GEvent e;
    for (const auto &block : rec.blocks) {
        h = mixWord(h, uint64_t(block.blockDim));
        h = mixWord(h, block.sharedBytes);
        h = mixWord(h, uint64_t(block.blockDim)); // the lane count
        for (int l = 0; l < block.blockDim; ++l) {
            h = mixWord(h, block.laneEvents(l));
            for (LaneStream::Cursor c = block.lane(l); c.next(e);) {
                // Field-by-field over the decoded event (a GEvent
                // has padding bytes whose contents are unspecified),
                // so the digest is a pure function of the logical
                // trace — store keys must not depend on how the
                // trace is stored. Two mix rounds per event,
                // not five: each field is premixed with a distinct
                // odd multiplier so contributions cannot cancel by
                // simple XOR alignment, and the full avalanche runs
                // on the combined words. This loop hashes tens of
                // millions of events per run, so the round count is
                // what the recording phase pays.
                uint64_t w1 =
                    e.key.hi * 0x9e3779b97f4a7c15ull + e.key.lo;
                uint64_t w2 =
                    e.addr +
                    ((uint64_t(e.size) << 32) |
                     (uint64_t(e.count) & 0xffffffffu)) *
                        0xc2b2ae3d27d4eb4full +
                    ((uint64_t(uint8_t(e.op)) << 8) |
                     uint64_t(uint8_t(e.space))) *
                        0xff51afd7ed558ccdull;
                h = mixWord(mixWord(h, w1), w2);
            }
        }
    }
    return h;
}

uint64_t
contentHash(const LaunchSequence &seq)
{
    uint64_t h = mixWord(0x6a09e667f3bcc908ull,
                         uint64_t(seq.launches.size()));
    for (const auto &rec : seq.launches)
        h = mixWord(h, contentHash(rec));
    return h;
}

const char *
spaceName(Space s)
{
    switch (s) {
      case Space::Global:
        return "global";
      case Space::Shared:
        return "shared";
      case Space::Const:
        return "const";
      case Space::Tex:
        return "tex";
      case Space::Param:
        return "param";
      case Space::Local:
        return "local";
      default:
        return "none";
    }
}

} // namespace gpusim
} // namespace rodinia
