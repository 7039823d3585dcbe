/**
 * @file
 * Functional memory backend: real bytes backing the slab arena so every
 * simulated load/store moves actual data. This is what lets the suite
 * validate each workload by running it to completion on every
 * configuration and comparing outputs with a native reference.
 */

#ifndef DISTDA_ENGINE_BACKEND_HH
#define DISTDA_ENGINE_BACKEND_HH

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "src/compiler/dfg.hh"
#include "src/mem/addr.hh"
#include "src/sim/logging.hh"

namespace distda::engine
{

/** Byte-addressable backing store for the accelerator-visible arena. */
class MemBackend
{
  public:
    /**
     * The arena is zeroed lazily: calloc hands large blocks straight
     * from fresh zero pages, so a job touches only the bytes it uses.
     */
    MemBackend(mem::Addr base, std::uint64_t size)
        : _base(base), _size(size),
          _data(static_cast<std::uint8_t *>(
              std::calloc(std::max<std::uint64_t>(size, 1), 1)))
    {
        if (!_data)
            fatal("cannot allocate a %llu-byte memory arena",
                  static_cast<unsigned long long>(size));
    }

    mem::Addr base() const { return _base; }
    std::uint64_t size() const { return _size; }

    /** Load an element; integers sign-extend, floats widen to double. */
    compiler::Word
    load(mem::Addr addr, std::uint32_t elem_bytes, bool is_float) const
    {
        const std::uint8_t *p = at(addr, elem_bytes);
        compiler::Word w{};
        if (is_float) {
            if (elem_bytes == 4) {
                float f;
                std::memcpy(&f, p, 4);
                w.f = f;
            } else {
                std::memcpy(&w.f, p, 8);
            }
        } else {
            switch (elem_bytes) {
              case 1: {
                  std::int8_t v;
                  std::memcpy(&v, p, 1);
                  w.i = v;
                  break;
              }
              case 2: {
                  std::int16_t v;
                  std::memcpy(&v, p, 2);
                  w.i = v;
                  break;
              }
              case 4: {
                  std::int32_t v;
                  std::memcpy(&v, p, 4);
                  w.i = v;
                  break;
              }
              default:
                std::memcpy(&w.i, p, 8);
                break;
            }
        }
        return w;
    }

    /** Store an element, narrowing as needed. */
    void
    store(mem::Addr addr, compiler::Word w, std::uint32_t elem_bytes,
          bool is_float)
    {
        std::uint8_t *p = at(addr, elem_bytes);
        if (is_float) {
            if (elem_bytes == 4) {
                const float f = static_cast<float>(w.f);
                std::memcpy(p, &f, 4);
            } else {
                std::memcpy(p, &w.f, 8);
            }
        } else {
            switch (elem_bytes) {
              case 1: {
                  const auto v = static_cast<std::int8_t>(w.i);
                  std::memcpy(p, &v, 1);
                  break;
              }
              case 2: {
                  const auto v = static_cast<std::int16_t>(w.i);
                  std::memcpy(p, &v, 2);
                  break;
              }
              case 4: {
                  const auto v = static_cast<std::int32_t>(w.i);
                  std::memcpy(p, &v, 4);
                  break;
              }
              default:
                std::memcpy(p, &w.i, 8);
                break;
            }
        }
    }

    /**
     * Byte-exact snapshot of [addr, addr+len): the differential fuzz
     * harness compares final memory-object state across backends with
     * memcmp rather than element-typed reads, so narrowing or padding
     * bugs cannot hide behind a lossy accessor.
     */
    void
    copyOut(mem::Addr addr, void *dst, std::uint64_t len) const
    {
        DISTDA_ASSERT(addr >= _base && addr + len <= _base + _size,
                      "backend copyOut [0x%llx, +%llu) outside arena",
                      static_cast<unsigned long long>(addr),
                      static_cast<unsigned long long>(len));
        std::memcpy(dst, _data.get() + (addr - _base), len);
    }

  private:
    std::uint8_t *
    at(mem::Addr addr, std::uint32_t elem_bytes)
    {
        DISTDA_ASSERT(addr >= _base &&
                          addr + elem_bytes <= _base + _size,
                      "backend access 0x%llx outside arena",
                      static_cast<unsigned long long>(addr));
        return _data.get() + (addr - _base);
    }

    const std::uint8_t *
    at(mem::Addr addr, std::uint32_t elem_bytes) const
    {
        return const_cast<MemBackend *>(this)->at(addr, elem_bytes);
    }

    struct Free
    {
        void operator()(std::uint8_t *p) const { std::free(p); }
    };

    mem::Addr _base;
    std::uint64_t _size;
    std::unique_ptr<std::uint8_t[], Free> _data;
};

/** A typed view of one allocated data structure. */
struct ArrayRef
{
    mem::Addr base = 0;
    std::uint64_t count = 0;
    std::uint32_t elemBytes = 8;
    bool isFloat = false;
    MemBackend *mem = nullptr;

    mem::Addr addrOf(std::uint64_t i) const { return base + i * elemBytes; }

    double
    getF(std::uint64_t i) const
    {
        return mem->load(addrOf(i), elemBytes, true).f;
    }

    void
    setF(std::uint64_t i, double v)
    {
        compiler::Word w;
        w.f = v;
        mem->store(addrOf(i), w, elemBytes, true);
    }

    std::int64_t
    getI(std::uint64_t i) const
    {
        return mem->load(addrOf(i), elemBytes, false).i;
    }

    void
    setI(std::uint64_t i, std::int64_t v)
    {
        compiler::Word w;
        w.i = v;
        mem->store(addrOf(i), w, elemBytes, false);
    }

    std::uint64_t sizeBytes() const { return count * elemBytes; }
};

} // namespace distda::engine

#endif // DISTDA_ENGINE_BACKEND_HH
