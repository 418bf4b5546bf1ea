#include "src/apps/mini_leveldb.h"

#include <algorithm>
#include <charconv>
#include <stdexcept>
#include <utility>

namespace clof::apps {

// Skiplist node with a flexible tower of forward pointers.
struct MiniLevelDb::Node {
  std::string key;
  std::string value;
  bool deleted = false;
  int height;
  Node* next[1];  // over-allocated to `height` entries

  static Node* Create(std::string key, std::string value, int height) {
    size_t bytes = sizeof(Node) + sizeof(Node*) * (static_cast<size_t>(height) - 1);
    void* mem = ::operator new(bytes);
    Node* node = new (mem) Node{std::move(key), std::move(value), false, height, {nullptr}};
    for (int i = 0; i < height; ++i) {
      node->next[i] = nullptr;
    }
    return node;
  }

  static void Destroy(Node* node) {
    node->~Node();
    ::operator delete(node);
  }
};

MiniLevelDb::MiniLevelDb(std::shared_ptr<Lock> lock, uint64_t seed)
    : lock_(std::move(lock)), rng_state_(seed | 1) {
  head_ = Node::Create("", "", kMaxHeight);
}

MiniLevelDb::~MiniLevelDb() {
  Node* node = head_;
  while (node != nullptr) {
    Node* next = node->next[0];
    Node::Destroy(node);
    node = next;
  }
}

int MiniLevelDb::RandomHeight() {
  // xorshift64; 1/4 branching probability like LevelDB.
  int height = 1;
  while (height < kMaxHeight) {
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    if ((rng_state_ & 3) != 0) {
      break;
    }
    ++height;
  }
  return height;
}

MiniLevelDb::Node* MiniLevelDb::FindGreaterOrEqual(const std::string& key, Node** prev) const {
  Node* node = head_;
  for (int level = height_ - 1; level >= 0; --level) {
    while (node->next[level] != nullptr && node->next[level]->key < key) {
      node = node->next[level];
    }
    if (prev != nullptr) {
      prev[level] = node;
    }
  }
  return node->next[0];
}

void MiniLevelDb::Put(Session& session, const std::string& key, const std::string& value) {
  Lock::Guard guard(*lock_, session.context());
  Node* prev[kMaxHeight];
  for (int i = 0; i < kMaxHeight; ++i) {
    prev[i] = head_;
  }
  Node* node = FindGreaterOrEqual(key, prev);
  if (node != nullptr && node->key == key) {
    node->value = value;
    if (node->deleted) {
      node->deleted = false;
      ++size_;
    }
    return;
  }
  int height = RandomHeight();
  if (height > height_) {
    height_ = height;
  }
  Node* fresh = Node::Create(key, value, height);
  for (int level = 0; level < height; ++level) {
    fresh->next[level] = prev[level]->next[level];
    prev[level]->next[level] = fresh;
  }
  ++size_;
}

std::optional<std::string> MiniLevelDb::Get(Session& session, const std::string& key) {
  Lock::Guard guard(*lock_, session.context());
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node != nullptr && node->key == key && !node->deleted) {
    return node->value;
  }
  return std::nullopt;
}

bool MiniLevelDb::Delete(Session& session, const std::string& key) {
  // Tombstone, LevelDB-style: the skiplist is insert-only under the lock.
  Lock::Guard guard(*lock_, session.context());
  Node* node = FindGreaterOrEqual(key, nullptr);
  if (node != nullptr && node->key == key && !node->deleted) {
    node->deleted = true;
    --size_;
    return true;
  }
  return false;
}

std::vector<std::pair<std::string, std::string>> MiniLevelDb::Scan(Session& session,
                                                                   const std::string& start,
                                                                   int limit) {
  Lock::Guard guard(*lock_, session.context());
  std::vector<std::pair<std::string, std::string>> out;
  Node* node = FindGreaterOrEqual(start, nullptr);
  while (node != nullptr && static_cast<int>(out.size()) < limit) {
    if (!node->deleted) {
      out.emplace_back(node->key, node->value);
    }
    node = node->next[0];
  }
  return out;
}

std::string MiniLevelDb::KeyFor(uint64_t n) {
  constexpr size_t kDigits = 16;
  if (n >= 10'000'000'000'000'000ull) {  // 10^16 needs a 17th digit
    throw std::out_of_range("MiniLevelDb::KeyFor: " + std::to_string(n) +
                            " does not fit 16 decimal digits");
  }
  // Sized once (an exact 16-byte heap buffer), then the digits right-aligned.
  std::string key(kDigits, '0');
  char digits[kDigits];
  char* end = std::to_chars(digits, digits + kDigits, n).ptr;
  std::copy(digits, end, key.end() - (end - digits));
  return key;
}

}  // namespace clof::apps
