/**
 * @file
 * Simulated byte-addressable memory.
 *
 * SimMemory is one node's physical backing store: a sparse map of 4 KiB
 * pages allocated on first touch. MemPort is the access interface the
 * interpreters use; LocalMemPort binds directly to a SimMemory (single-
 * node execution), while dsm/DsmSpace provides ports that run the hDSM
 * coherence protocol between nodes and charge transfer latency.
 *
 * Every MemPort carries a small direct-mapped software TLB (DESIGN.md
 * §7): a cache of vpage -> host-page-pointer translations that the
 * interpreter probes inline (tryRead/tryWrite) before paying the
 * virtual call. Concrete ports install entries from their slow paths
 * only for pages whose accesses are free and side-effect-less (no
 * protocol action, no charged cycles, no stat bumps), so a hit is
 * exactly equivalent to the slow path. Whoever changes a page's
 * residency or rights must invalidate (tlbDropPage/tlbDropWrite/
 * tlbFlush) -- the hDSM directory does this on page steal,
 * invalidation, and drop.
 */

#ifndef XISA_MACHINE_MEM_HH
#define XISA_MACHINE_MEM_HH

#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "binary/multibinary.hh" // for vm::kPageSize
#include "util/env.hh"

namespace xisa {

/** Sparse paged memory; pages materialize zero-filled on first touch. */
class SimMemory
{
  public:
    /** Pointer to the byte at `addr`, allocating its page if needed. */
    uint8_t *at(uint64_t addr);
    /** True if the page containing `addr` exists. */
    bool hasPage(uint64_t vpage) const;
    /** Raw page pointer (allocating); `vpage` is addr / kPageSize. */
    uint8_t *page(uint64_t vpage);
    /** Discard a page (used by hDSM invalidation). Any MemPort TLB
     *  entry pointing at the page must be dropped by the caller. */
    void dropPage(uint64_t vpage);
    /** Number of resident pages. */
    size_t residentPages() const { return pages_.size(); }

    /** Page bytes if resident, nullptr otherwise. Never allocates --
     *  safe for auditors that must not perturb residency. */
    const uint8_t *
    peekPage(uint64_t vpage) const
    {
        auto it = pages_.find(vpage);
        return it == pages_.end() ? nullptr : it->second.data();
    }

    /** Cross-page-safe bulk copy out of memory. */
    void read(uint64_t addr, void *dst, size_t n);
    /** Cross-page-safe bulk copy into memory. */
    void write(uint64_t addr, const void *src, size_t n);

    /** All resident pages, keyed by virtual page number (snapshots). */
    const std::unordered_map<uint64_t, std::vector<uint8_t>> &
    pageMap() const
    {
        return pages_;
    }

  private:
    std::unordered_map<uint64_t, std::vector<uint8_t>> pages_;
};

/**
 * Abstract memory access path used by the interpreters. read()/write()
 * return the extra latency (cycles) the access incurred beyond the
 * cache model. tryRead()/tryWrite() are the inline TLB fast path: they
 * succeed only when the translation is cached, in which case the access
 * is free (0 extra cycles) and has no protocol side effects.
 */
class MemPort
{
  public:
    virtual ~MemPort() = default;
    virtual uint64_t read(uint64_t addr, void *dst, unsigned n) = 0;
    virtual uint64_t write(uint64_t addr, const void *src, unsigned n) = 0;

    // --- Software TLB (direct-mapped, per port) ------------------------

    static constexpr unsigned kTlbBits = 10;
    static constexpr unsigned kTlbSize = 1u << kTlbBits;
    static constexpr uint64_t kNoPage = ~0ull;

    /**
     * TLB probe for a load. Returns true and fills `dst` iff the page
     * is cached readable and [addr, addr+n) does not cross the page.
     */
    bool
    tryRead(uint64_t addr, void *dst, unsigned n)
    {
        const uint64_t vpage = addr / vm::kPageSize;
        const uint64_t off = addr % vm::kPageSize;
        const TlbEntry &e = readTlb_[vpage & (kTlbSize - 1)];
        if (e.vpage != vpage || off + n > vm::kPageSize)
            return false;
        std::memcpy(dst, e.base + off, n);
        return true;
    }

    /** TLB probe for a store; cached-writable same-page accesses only. */
    bool
    tryWrite(uint64_t addr, const void *src, unsigned n)
    {
        const uint64_t vpage = addr / vm::kPageSize;
        const uint64_t off = addr % vm::kPageSize;
        const TlbEntry &e = writeTlb_[vpage & (kTlbSize - 1)];
        if (e.vpage != vpage || off + n > vm::kPageSize)
            return false;
        std::memcpy(e.base + off, src, n);
        return true;
    }

    /** Drop both translations for `vpage` (page stolen or freed). */
    void
    tlbDropPage(uint64_t vpage)
    {
        TlbEntry &r = readTlb_[vpage & (kTlbSize - 1)];
        if (r.vpage == vpage)
            r = TlbEntry{};
        tlbDropWrite(vpage);
    }

    /** Drop only the write translation (Modified -> Shared downgrade). */
    void
    tlbDropWrite(uint64_t vpage)
    {
        TlbEntry &w = writeTlb_[vpage & (kTlbSize - 1)];
        if (w.vpage == vpage)
            w = TlbEntry{};
    }

    /** Drop every cached translation (dead node, snapshot restore). */
    void
    tlbFlush()
    {
        for (TlbEntry &e : readTlb_)
            e = TlbEntry{};
        for (TlbEntry &e : writeTlb_)
            e = TlbEntry{};
    }

    // --- Read-only probes (invariant auditing / tests) -----------------

    /** Cached read translation for `vpage`, or nullptr. */
    const uint8_t *
    tlbReadBase(uint64_t vpage) const
    {
        const TlbEntry &e = readTlb_[vpage & (kTlbSize - 1)];
        return e.vpage == vpage ? e.base : nullptr;
    }

    /** Cached write translation for `vpage`, or nullptr. */
    const uint8_t *
    tlbWriteBase(uint64_t vpage) const
    {
        const TlbEntry &e = writeTlb_[vpage & (kTlbSize - 1)];
        return e.vpage == vpage ? e.base : nullptr;
    }

  protected:
    struct TlbEntry {
        uint64_t vpage = kNoPage; ///< tag; kNoPage marks an empty slot
        uint8_t *base = nullptr;  ///< host pointer to the 4 KiB page
    };

    void
    tlbInstallRead(uint64_t vpage, uint8_t *base)
    {
        readTlb_[vpage & (kTlbSize - 1)] = {vpage, base};
    }

    void
    tlbInstallWrite(uint64_t vpage, uint8_t *base)
    {
        writeTlb_[vpage & (kTlbSize - 1)] = {vpage, base};
    }

  private:
    TlbEntry readTlb_[kTlbSize];
    TlbEntry writeTlb_[kTlbSize];
};

/** MemPort bound directly to one SimMemory; zero extra latency.
 *  Contract: a caller that drops pages from the underlying SimMemory
 *  must tlbFlush() this port. */
class LocalMemPort : public MemPort
{
  public:
    explicit LocalMemPort(SimMemory &mem)
        : mem_(mem), tlbEnabled_(!slowPathRequested())
    {}

    uint64_t
    read(uint64_t addr, void *dst, unsigned n) override
    {
        mem_.read(addr, dst, n);
        install(addr / vm::kPageSize);
        return 0;
    }

    uint64_t
    write(uint64_t addr, const void *src, unsigned n) override
    {
        mem_.write(addr, src, n);
        install(addr / vm::kPageSize);
        return 0;
    }

  private:
    void
    install(uint64_t vpage)
    {
        if (!tlbEnabled_)
            return;
        // Local memory grants full rights; cache both translations.
        uint8_t *base = mem_.page(vpage);
        tlbInstallRead(vpage, base);
        tlbInstallWrite(vpage, base);
    }

    SimMemory &mem_;
    bool tlbEnabled_;
};

} // namespace xisa

#endif // XISA_MACHINE_MEM_HH
