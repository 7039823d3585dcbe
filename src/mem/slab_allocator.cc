#include "src/mem/slab_allocator.hh"

#include "src/sim/logging.hh"

namespace distda::mem
{

SlabAllocator::SlabAllocator(Addr base, std::uint64_t size)
    : _base(base), _size(size), _bump(base),
      _freeLists(static_cast<std::size_t>(numClasses))
{
    if (base % lineBytes != 0)
        fatal("slab arena base must be line-aligned");
    if (size < minSlab)
        fatal("slab arena too small");
}

int
SlabAllocator::classFor(std::uint64_t bytes)
{
    std::uint64_t sz = minSlab;
    for (int cls = 0; cls < numClasses; ++cls) {
        if (bytes <= sz)
            return cls;
        sz *= 2;
    }
    return -1; // large allocation
}

std::uint64_t
SlabAllocator::classBytes(int cls)
{
    return minSlab << cls;
}

Addr
SlabAllocator::allocate(std::uint64_t bytes, const std::string &name)
{
    if (bytes == 0)
        fatal("zero-byte allocation '%s'", name.c_str());
    // Reject before rounding: for bytes within minSlab of UINT64_MAX
    // the round-up below would wrap and hand out a tiny range aliasing
    // a later allocation instead of failing.
    if (bytes > _size)
        fatal("allocation '%s' of %llu bytes exceeds the %llu-byte arena",
              name.c_str(), static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(_size));

    const int cls = classFor(bytes);
    std::uint64_t rounded;
    Addr addr;

    if (cls >= 0 && !_freeLists[static_cast<std::size_t>(cls)].empty()) {
        auto &fl = _freeLists[static_cast<std::size_t>(cls)];
        addr = fl.back();
        fl.pop_back();
        rounded = classBytes(cls);
    } else {
        rounded = (cls >= 0)
                      ? classBytes(cls)
                      : ((bytes + minSlab - 1) / minSlab) * minSlab;
        if (_bump + rounded > _base + _size)
            fatal("slab arena exhausted allocating %llu bytes for '%s'",
                  static_cast<unsigned long long>(bytes), name.c_str());
        addr = _bump;
        // Page coloring: stagger consecutive allocations by one page
        // so power-of-two-sized objects do not all anchor to the same
        // NUCA cluster under page interleaving.
        _bump += rounded + minSlab;
    }

    _live[addr] = Allocation{addr, rounded, name};
    return addr;
}

void
SlabAllocator::free(Addr base)
{
    auto it = _live.find(base);
    if (it == _live.end())
        panic("slab free of unknown address 0x%llx",
              static_cast<unsigned long long>(base));
    const std::uint64_t bytes = it->second.bytes;
    const int cls = classFor(bytes);
    if (cls >= 0 && classBytes(cls) == bytes)
        _freeLists[static_cast<std::size_t>(cls)].push_back(base);
    // Large ranges are not recycled (arena is sized for the workload).
    _live.erase(it);
}

const Allocation *
SlabAllocator::find(Addr addr) const
{
    auto it = _live.upper_bound(addr);
    if (it == _live.begin())
        return nullptr;
    --it;
    const Allocation &a = it->second;
    if (addr >= a.base && addr < a.base + a.bytes)
        return &a;
    return nullptr;
}

void
ObjectTable::registerObject(int obj_id, Addr base, std::uint64_t elem_count,
                            std::uint32_t elem_bytes, std::string name)
{
    _entries[obj_id] = Entry{base, elem_count, elem_bytes, std::move(name)};
}

void
ObjectTable::unregisterObject(int obj_id)
{
    _entries.erase(obj_id);
}

const ObjectTable::Entry &
ObjectTable::entry(int obj_id) const
{
    auto it = _entries.find(obj_id);
    if (it == _entries.end())
        panic("object %d not registered in translation table", obj_id);
    return it->second;
}

Addr
ObjectTable::addrOf(int obj_id, std::uint64_t elem_offset) const
{
    const Entry &e = entry(obj_id);
    DISTDA_ASSERT(elem_offset < e.elemCount,
                  "object %d offset %llu out of %llu", obj_id,
                  static_cast<unsigned long long>(elem_offset),
                  static_cast<unsigned long long>(e.elemCount));
    return e.base + elem_offset * e.elemBytes;
}

std::uint32_t
ObjectTable::elemBytes(int obj_id) const
{
    return entry(obj_id).elemBytes;
}

} // namespace distda::mem
