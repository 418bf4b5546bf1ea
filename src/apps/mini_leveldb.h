// MiniLevelDB: a LevelDB-flavoured in-memory KV store with a pluggable lock.
//
// LevelDB guards its memtable and version state with a single mutex (DBImpl::mutex_);
// the lock papers (CNA, ShflLock, CLoF §5.1.2) interpose exactly that mutex. This store
// reproduces the contention structure natively: a skiplist memtable behind one
// type-erased clof::Lock, so any generated CLoF lock or baseline can drive it. It backs
// the runnable examples and the native stress tests; the *simulated* benchmarks use the
// calibrated `leveldb_readrandom` workload profile instead (see DESIGN.md).
#ifndef CLOF_SRC_APPS_MINI_LEVELDB_H_
#define CLOF_SRC_APPS_MINI_LEVELDB_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/apps/session.h"
#include "src/clof/lock.h"

namespace clof::apps {

class MiniLevelDb {
 public:
  // The db shares ownership of the lock; sessions reference the db.
  explicit MiniLevelDb(std::shared_ptr<Lock> lock, uint64_t seed = 1);
  ~MiniLevelDb();

  MiniLevelDb(const MiniLevelDb&) = delete;
  MiniLevelDb& operator=(const MiniLevelDb&) = delete;

  // A per-thread handle carrying the lock context (the context invariant: one session
  // per thread, never shared). See src/apps/session.h.
  class Session : public SessionBase {
   public:
    explicit Session(MiniLevelDb& db) : SessionBase(*db.lock_) {}
  };

  void Put(Session& session, const std::string& key, const std::string& value);
  std::optional<std::string> Get(Session& session, const std::string& key);
  bool Delete(Session& session, const std::string& key);
  // First `limit` key/value pairs with keys >= `start`, in key order.
  std::vector<std::pair<std::string, std::string>> Scan(Session& session,
                                                        const std::string& start, int limit);
  size_t size() const { return size_; }

  // The "readrandom" key format used by the benchmark utilities: 16-digit zero-padded
  // decimal. Throws std::out_of_range for n >= 10^16, which would need a 17th digit.
  static std::string KeyFor(uint64_t n);

 private:
  static constexpr int kMaxHeight = 12;

  struct Node;

  int RandomHeight();
  Node* FindGreaterOrEqual(const std::string& key, Node** prev) const;

  std::shared_ptr<Lock> lock_;
  Node* head_;
  int height_ = 1;
  size_t size_ = 0;
  uint64_t rng_state_;
};

}  // namespace clof::apps

#endif  // CLOF_SRC_APPS_MINI_LEVELDB_H_
