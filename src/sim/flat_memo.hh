/**
 * @file
 * FlatMemo: a compact, open-addressed memo table for pure-function
 * results (kernel costs, GEMV replays).
 *
 * Entries live in one dense array in insertion order. A separate
 * power-of-two index of 64-bit words maps a key to its entry: the
 * high half of a word holds a tag (the high half of the key's mixed
 * hash), the low half holds the entry number + 1, and 0 marks an
 * empty slot. Lookups probe linearly from the slot the hash's low
 * bits select and compare the full key only on a tag match. The
 * index is rebuilt at twice its size whenever an insert would push
 * its load above 1/2, so probe runs stay short.
 *
 * A memo that reaches @ref flatMemoMaxEntries entries is discarded
 * wholesale on the next insert (long serving sweeps with
 * ever-changing context sums would otherwise grow without bound).
 *
 * Determinism: the table offers find/insert/clear and no iteration,
 * so its layout can never reach a result. A hit returns the value an
 * earlier insert stored for an equal key; callers insert only values
 * a recompute would reproduce bit for bit.
 */

#ifndef PAPI_SIM_FLAT_MEMO_HH
#define PAPI_SIM_FLAT_MEMO_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace papi::sim {

/** splitmix64 finalizer: spreads every input bit over all 64. */
constexpr std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** Entry count at which FlatMemo::insert() discards a memo wholesale. */
inline constexpr std::size_t flatMemoMaxEntries = std::size_t{1} << 20;

/**
 * Open-addressed memo from @p Key to @p Value. @p Hash is a stateless
 * functor returning a 64-bit-convertible hash of a key; its output is
 * run through @ref mix64 before use, so a hash with weak low bits
 * (e.g. an FNV word fold) still spreads over the index.
 */
template <typename Key, typename Value, typename Hash>
class FlatMemo
{
  public:
    /**
     * The value stored for @p key, or nullptr. The pointer is valid
     * until the next insert() or clear().
     */
    const Value *
    find(const Key &key) const
    {
        if (_index.empty())
            return nullptr;
        const std::uint64_t h = mix64(Hash{}(key));
        const std::uint64_t tag = h & kTagMask;
        for (std::size_t slot = h & _mask;; slot = (slot + 1) & _mask) {
            const std::uint64_t word = _index[slot];
            if (word == 0)
                return nullptr;
            if ((word & kTagMask) == tag) {
                const Entry &e = _entries[(word & kEntryMask) - 1];
                if (e.key == key)
                    return &e.value;
            }
        }
    }

    /**
     * Store @p value for @p key, which must not be present (callers
     * insert after a find() miss). Discards every entry first if the
     * memo already holds @ref flatMemoMaxEntries.
     */
    void
    insert(const Key &key, const Value &value)
    {
        if (_entries.size() >= flatMemoMaxEntries)
            clear();
        if (2 * (_entries.size() + 1) > _index.size())
            rebuildIndex(std::max<std::size_t>(kMinSlots,
                                               2 * _index.size()));
        _entries.push_back(Entry{key, value});
        place(mix64(Hash{}(key)), _entries.size());
    }

    /** Discard every entry (storage is kept for reuse). */
    void
    clear()
    {
        _entries.clear();
        std::fill(_index.begin(), _index.end(), 0);
    }

    /** Number of stored entries. */
    std::size_t size() const { return _entries.size(); }

    /** Index slots (a power of two, or 0 before the first insert). */
    std::size_t slots() const { return _index.size(); }

  private:
    struct Entry
    {
        Key key;
        Value value;
    };

    static constexpr std::uint64_t kTagMask = 0xFFFFFFFF00000000ULL;
    static constexpr std::uint64_t kEntryMask = 0x00000000FFFFFFFFULL;
    static constexpr std::size_t kMinSlots = 64;
    static_assert(flatMemoMaxEntries < kEntryMask,
                  "entry numbers must fit the index word's low half");

    /** Point the first free slot of @p h's probe run at entry
     *  number @p entry_plus_one. */
    void
    place(std::uint64_t h, std::size_t entry_plus_one)
    {
        std::size_t slot = h & _mask;
        while (_index[slot] != 0)
            slot = (slot + 1) & _mask;
        _index[slot] = (h & kTagMask) | entry_plus_one;
    }

    /** Re-place every entry into a fresh index of @p slots slots. */
    void
    rebuildIndex(std::size_t slots)
    {
        _index.assign(slots, 0);
        _mask = slots - 1;
        for (std::size_t i = 0; i < _entries.size(); ++i)
            place(mix64(Hash{}(_entries[i].key)), i + 1);
    }

    std::vector<Entry> _entries;
    std::vector<std::uint64_t> _index;
    std::size_t _mask = 0;
};

} // namespace papi::sim

#endif // PAPI_SIM_FLAT_MEMO_HH
