#ifndef DATACON_TYPES_SYMBOL_TABLE_H_
#define DATACON_TYPES_SYMBOL_TABLE_H_

#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

namespace datacon {

/// The process-wide table of interned STRING values: each distinct string
/// is stored once, with its `std::hash<std::string>`, under a dense 32-bit
/// id. A STRING `Value` holds only the id, so copying, hashing and
/// equality never touch the characters.
///
/// **Lifetime.** The table is append-only and never shrinks: an interned
/// string lives until the process exits, and the references `Text` hands
/// out stay valid that long. It is process-wide rather than per database
/// because values cross databases (results compared between databases,
/// prepared-query arguments, constraint witnesses); a program that feeds
/// an unbounded stream of distinct strings grows it without bound.
///
/// **Thread safety.** `Intern` takes a mutex. `Text` and `Hash` take no
/// lock: entries live in fixed chunks that never move, a chunk's pointer is
/// published with release/acquire, and an entry is written before its id
/// is returned, so any thread that holds an id may read its entry.
class SymbolTable {
 public:
  /// Returns the id of `text`, adding it to the table on first sight.
  static uint32_t Intern(std::string_view text);

  /// The string interned under `id`; valid for the life of the process.
  static const std::string& Text(uint32_t id) { return At(id).text; }

  /// `std::hash<std::string>{}(Text(id))`, computed once at interning.
  static size_t Hash(uint32_t id) { return At(id).hash; }

  /// Number of distinct strings interned so far.
  static size_t Size();

 private:
  struct Entry {
    std::string text;
    size_t hash = 0;
  };

  /// Chunk 0 holds ids [0, 2^kFirstChunkBits); chunk k > 0 holds the next
  /// 2^(kFirstChunkBits + k - 1) ids, so chunk sizes double and a fixed
  /// directory of kMaxChunks pointers covers every 32-bit id.
  static constexpr int kFirstChunkBits = 10;
  static constexpr int kMaxChunks = 32 - kFirstChunkBits + 1;

  static size_t ChunkOf(uint32_t id) {
    return static_cast<size_t>(std::bit_width(id >> kFirstChunkBits));
  }
  static uint32_t ChunkStart(size_t chunk) {
    return chunk == 0 ? 0 : uint32_t{1} << (kFirstChunkBits + chunk - 1);
  }
  static size_t ChunkSize(size_t chunk) {
    return size_t{1} << (kFirstChunkBits + (chunk == 0 ? 0 : chunk - 1));
  }

  static const Entry& At(uint32_t id) {
    const size_t chunk = ChunkOf(id);
    return chunks_[chunk].load(std::memory_order_acquire)[id -
                                                           ChunkStart(chunk)];
  }

  static std::atomic<Entry*> chunks_[kMaxChunks];
};

}  // namespace datacon

#endif  // DATACON_TYPES_SYMBOL_TABLE_H_
