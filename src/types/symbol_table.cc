#include "types/symbol_table.h"

#include <functional>
#include <limits>
#include <mutex>
#include <unordered_map>

#include "common/check.h"

namespace datacon {

std::atomic<SymbolTable::Entry*> SymbolTable::chunks_[kMaxChunks];

namespace {

/// A lookup key: the string and its precomputed hash, so the index never
/// hashes a string twice.
struct Key {
  std::string_view text;
  size_t hash;
  friend bool operator==(const Key& a, const Key& b) {
    return a.text == b.text;
  }
};

struct KeyHash {
  size_t operator()(const Key& k) const { return k.hash; }
};

/// Interning state, all guarded by `mu`: the number of ids handed out and
/// the index from text to id. Keys view the chunk entries' own strings,
/// which never move.
struct Interner {
  std::mutex mu;
  uint32_t size = 0;
  std::unordered_map<Key, uint32_t, KeyHash> index;
};

Interner& TheInterner() {
  // Never destroyed: ids (and the texts behind them) may be read by static
  // destructors of other translation units.
  static Interner* interner = new Interner();
  return *interner;
}

}  // namespace

uint32_t SymbolTable::Intern(std::string_view text) {
  // std::hash<std::string_view> equals std::hash<std::string> on the same
  // characters, so Value::Hash() is what it was when values held strings.
  const size_t hash = std::hash<std::string_view>{}(text);
  Interner& in = TheInterner();
  std::lock_guard<std::mutex> lock(in.mu);
  auto found = in.index.find(Key{text, hash});
  if (found != in.index.end()) return found->second;
  DATACON_CHECK(in.size < std::numeric_limits<uint32_t>::max(),
                "symbol table is full");
  const uint32_t id = in.size;
  const size_t chunk = ChunkOf(id);
  Entry* entries = chunks_[chunk].load(std::memory_order_relaxed);
  if (entries == nullptr) {
    entries = new Entry[ChunkSize(chunk)];
    chunks_[chunk].store(entries, std::memory_order_release);
  }
  Entry& entry = entries[id - ChunkStart(chunk)];
  entry.text.assign(text);
  entry.hash = hash;
  in.index.emplace(Key{entry.text, hash}, id);
  ++in.size;
  return id;
}

size_t SymbolTable::Size() {
  Interner& in = TheInterner();
  std::lock_guard<std::mutex> lock(in.mu);
  return in.size;
}

}  // namespace datacon
