/**
 * @file
 * Slab allocator for accelerator-visible memory (paper §IV-D): a large
 * contiguous region is pre-mapped for accelerator-accessible data
 * structures so that translations are per-object instead of per-page.
 *
 * Small requests are served from power-of-two slab classes with free
 * lists; large requests take contiguous ranges from a bump region.
 */

#ifndef DISTDA_MEM_SLAB_ALLOCATOR_HH
#define DISTDA_MEM_SLAB_ALLOCATOR_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/mem/addr.hh"

namespace distda::mem
{

/** One live allocation. */
struct Allocation
{
    Addr base = 0;
    std::uint64_t bytes = 0;
    std::string name;
};

/** Slab allocator over one contiguous accelerator-visible arena. */
class SlabAllocator
{
  public:
    /** Manage [base, base+size). @p base must be line-aligned. */
    SlabAllocator(Addr base, std::uint64_t size);

    /**
     * Allocate @p bytes (rounded up to a slab class or page multiple).
     * @return base address of the allocation.
     */
    Addr allocate(std::uint64_t bytes, const std::string &name);

    /** Free a previous allocation by base address. */
    void free(Addr base);

    /** Look up a live allocation; nullptr when none covers @p addr. */
    const Allocation *find(Addr addr) const;

    /** Number of live allocations. */
    std::size_t liveAllocations() const { return _live.size(); }

  private:
    static constexpr std::uint64_t minSlab = 4096;
    static constexpr int numClasses = 8; ///< 4KB .. 512KB

    static int classFor(std::uint64_t bytes);
    static std::uint64_t classBytes(int cls);

    Addr _base;
    std::uint64_t _size;
    Addr _bump;
    std::vector<std::vector<Addr>> _freeLists;
    std::map<Addr, Allocation> _live;
};

/**
 * Per-object translation table (the "translation block" of Fig 2c):
 * accelerators address data structures by object ID and element offset;
 * this table maps that to physical addresses.
 */
class ObjectTable
{
  public:
    /** Register object @p obj_id at @p base with @p elem_bytes elements. */
    void registerObject(int obj_id, Addr base, std::uint64_t elem_count,
                        std::uint32_t elem_bytes, std::string name);

    /** Remove an object mapping. */
    void unregisterObject(int obj_id);

    /** Physical address of element @p elem_offset of @p obj_id. */
    Addr addrOf(int obj_id, std::uint64_t elem_offset) const;

    /** Element size for an object. */
    std::uint32_t elemBytes(int obj_id) const;

    bool contains(int obj_id) const { return _entries.count(obj_id) > 0; }
    std::size_t size() const { return _entries.size(); }

  private:
    struct Entry
    {
        Addr base;
        std::uint64_t elemCount;
        std::uint32_t elemBytes;
        std::string name;
    };
    const Entry &entry(int obj_id) const;
    std::map<int, Entry> _entries;
};

} // namespace distda::mem

#endif // DISTDA_MEM_SLAB_ALLOCATOR_HH
