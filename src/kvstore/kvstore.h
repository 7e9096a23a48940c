// In-memory key-value/table store: the stand-in for HBase (online
// serving) and Hive (offline training data) in the paper's system diagram
// (Fig. 4). Thread-safe; supports point get/put, prefix scans, and size
// accounting.
#ifndef ONE4ALL_KVSTORE_KVSTORE_H_
#define ONE4ALL_KVSTORE_KVSTORE_H_

#include <map>
#include <shared_mutex>
#include <string>
#include <vector>

#include "core/status.h"

namespace one4all {

/// \brief Ordered, thread-safe string KV store.
class KvStore {
 public:
  KvStore() = default;

  /// \brief Inserts or overwrites.
  void Put(const std::string& key, std::string value);

  /// \brief Point lookup.
  Result<std::string> Get(const std::string& key) const;
  bool Contains(const std::string& key) const;

  /// \brief Removes a key; NotFound if absent.
  Status Delete(const std::string& key);

  /// \brief All (key, value) pairs whose key starts with `prefix`,
  /// in key order.
  std::vector<std::pair<std::string, std::string>> ScanPrefix(
      const std::string& prefix) const;

  /// \brief Number of keys starting with `prefix` (no value copies).
  size_t CountPrefix(const std::string& prefix) const;

  /// \brief All keys starting with `prefix`, in order (no value copies).
  std::vector<std::string> KeysWithPrefix(const std::string& prefix) const;

  /// \brief Removes every key starting with `prefix` under one exclusive
  /// lock (a range erase — no per-key lock churn, no value copies; this
  /// is what epoch reclamation runs on the serving path). Returns the
  /// number of keys removed.
  size_t DeletePrefix(const std::string& prefix);

  size_t NumKeys() const;
  /// \brief Sum of key and value byte lengths.
  int64_t ApproxBytes() const;
  void Clear();

 private:
  // Reader-writer lock: the online query path is read-dominated (many
  // concurrent Get readers per synced key), so readers take the lock
  // shared and only Put/Delete/Clear exclude each other.
  mutable std::shared_mutex mu_;
  std::map<std::string, std::string> table_;
};

}  // namespace one4all

#endif  // ONE4ALL_KVSTORE_KVSTORE_H_
