#include "evm/world_state.h"

#include <cstring>
#include <utility>

namespace mufuzz::evm {

// ------------------------------------------------------------------ Storage --

const Storage::Entry* Storage::FindEntry(const U256& key) const {
  if (!spilled()) {
    for (size_t i = 0; i < inline_count_; ++i) {
      if (inline_[i].key == key) return &inline_[i];
    }
    return nullptr;
  }
  const size_t mask = table_.size() - 1;
  size_t i = U256::Hasher()(key) & mask;
  while (table_[i].live) {
    if (table_[i].key == key) return &table_[i];
    i = (i + 1) & mask;
  }
  return nullptr;
}

void Storage::EraseInline(size_t index) {
  inline_[index] = inline_[inline_count_ - 1];
  --inline_count_;
}

void Storage::EraseTable(size_t index) {
  // Backward-shift deletion keeps probe chains intact without tombstones:
  // walk forward from the hole and pull back every entry whose probe path
  // crosses it.
  const size_t mask = table_.size() - 1;
  size_t hole = index;
  size_t i = (index + 1) & mask;
  while (table_[i].live) {
    size_t ideal = U256::Hasher()(table_[i].key) & mask;
    if (((i - ideal) & mask) >= ((i - hole) & mask)) {
      table_[hole] = table_[i];
      hole = i;
    }
    i = (i + 1) & mask;
  }
  table_[hole].live = false;
  --table_live_;
}

void Storage::TableInsert(const Entry& entry) {
  if ((table_live_ + 1) * 4 > table_.size() * 3) {
    std::vector<Entry> old = std::move(table_);
    table_.assign(old.size() * 2, Entry{});
    table_live_ = 0;
    for (const Entry& e : old) {
      if (e.live) TableInsert(e);
    }
  }
  const size_t mask = table_.size() - 1;
  size_t i = U256::Hasher()(entry.key) & mask;
  while (table_[i].live) i = (i + 1) & mask;
  table_[i] = entry;
  table_[i].live = true;
  ++table_live_;
}

void Storage::MigrateToTable() {
  table_.assign(4 * kInlineCapacity, Entry{});
  table_live_ = 0;
  for (size_t i = 0; i < inline_count_; ++i) TableInsert(inline_[i]);
  inline_count_ = 0;
}

std::pair<U256, uint32_t> Storage::Exchange(const U256& key,
                                            const U256& value,
                                            uint32_t taint) {
  Entry* e = const_cast<Entry*>(FindEntry(key));
  if (e == nullptr) {
    if (value.IsZero() && taint == 0) return {U256::Zero(), 0};
    if (!value.IsZero()) ++value_count_;
    if (taint != 0) ++taint_count_;
    Entry fresh;
    fresh.key = key;
    fresh.value = value;
    fresh.taint = taint;
    if (!spilled()) {
      if (inline_count_ < kInlineCapacity) {
        inline_[inline_count_++] = fresh;
        return {U256::Zero(), 0};
      }
      MigrateToTable();
    }
    TableInsert(fresh);
    return {U256::Zero(), 0};
  }

  U256 prev = e->value;
  uint32_t prev_taint = e->taint;
  if (!prev.IsZero() && value.IsZero()) --value_count_;
  if (prev.IsZero() && !value.IsZero()) ++value_count_;
  if (prev_taint != 0 && taint == 0) --taint_count_;
  if (prev_taint == 0 && taint != 0) ++taint_count_;
  if (value.IsZero() && taint == 0) {
    if (spilled()) {
      EraseTable(static_cast<size_t>(e - table_.data()));
    } else {
      EraseInline(static_cast<size_t>(e - inline_.data()));
    }
  } else {
    e->value = value;
    e->taint = taint;
  }
  return {prev, prev_taint};
}

std::unordered_map<U256, U256, U256::Hasher> Storage::slots() const {
  std::unordered_map<U256, U256, U256::Hasher> out;
  out.reserve(value_count_);
  ForEach([&out](const Entry& e) {
    if (!e.value.IsZero()) out.emplace(e.key, e.value);
  });
  return out;
}

std::unordered_map<U256, uint32_t, U256::Hasher> Storage::taints() const {
  std::unordered_map<U256, uint32_t, U256::Hasher> out;
  out.reserve(taint_count_);
  ForEach([&out](const Entry& e) {
    if (e.taint != 0) out.emplace(e.key, e.taint);
  });
  return out;
}

bool operator==(const Storage& a, const Storage& b) {
  if (a.value_count_ != b.value_count_ || a.taint_count_ != b.taint_count_ ||
      a.live_count() != b.live_count()) {
    return false;
  }
  bool equal = true;
  a.ForEach([&](const Storage::Entry& e) {
    if (!equal) return;
    const Storage::Entry* other = b.FindEntry(e.key);
    if (other == nullptr || !(other->value == e.value) ||
        other->taint != e.taint) {
      equal = false;
    }
  });
  return equal;
}

// -------------------------------------------------------------- Fingerprint --

namespace {

/// Hashes one fingerprint item into both lanes at once. Each lane runs its
/// own seed and odd multiplier; every step (xor a word, multiply, fold the
/// high half down) is a bijection of the running value, and a SplitMix64
/// finalizer spreads the result.
class ItemHasher {
 public:
  /// `tag` keeps items of different kinds with equal fields apart.
  explicit ItemHasher(uint64_t tag) { Word(tag); }

  void Word(uint64_t w) {
    lo_ = (lo_ ^ w) * 0x9e3779b97f4a7c15ULL;
    lo_ ^= lo_ >> 32;
    hi_ = (hi_ ^ w) * 0xc2b2ae3d27d4eb4fULL;
    hi_ ^= hi_ >> 29;
  }
  void Words(const uint8_t* p, size_t n) {
    for (; n >= 8; p += 8, n -= 8) {
      uint64_t w;
      std::memcpy(&w, p, 8);
      Word(w);
    }
    if (n != 0) {
      uint64_t w = 0;
      std::memcpy(&w, p, n);
      Word(w);
    }
  }
  void Addr(const Address& a) { Words(a.bytes.data(), a.bytes.size()); }
  void Word256(const U256& v) {
    for (int i = 0; i < 4; ++i) Word(v.limb(i));
  }

  StateFingerprint Finish() const { return {Final(lo_), Final(hi_)}; }

 private:
  static uint64_t Final(uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  uint64_t lo_ = 0x243f6a8885a308d3ULL;
  uint64_t hi_ = 0x13198a2e03707344ULL;
};

enum ItemTag : uint64_t {
  kAccountItem = 1,
  kBalanceItem,
  kCodeItem,
  kSelfDestructedItem,
  kSlotItem,
};

StateFingerprint AccountTerm(const Address& a) {
  ItemHasher h(kAccountItem);
  h.Addr(a);
  return h.Finish();
}

StateFingerprint BalanceTerm(const Address& a, const U256& balance) {
  ItemHasher h(kBalanceItem);
  h.Addr(a);
  h.Word256(balance);
  return h.Finish();
}

StateFingerprint CodeTerm(const Address& a, const Bytes& code) {
  ItemHasher h(kCodeItem);
  h.Addr(a);
  h.Word(code.size());
  h.Words(code.data(), code.size());
  return h.Finish();
}

StateFingerprint SelfDestructedTerm(const Address& a) {
  ItemHasher h(kSelfDestructedItem);
  h.Addr(a);
  return h.Finish();
}

StateFingerprint SlotTerm(const Address& a, const U256& key, const U256& value,
                          uint32_t taint) {
  ItemHasher h(kSlotItem);
  h.Addr(a);
  h.Word256(key);
  h.Word256(value);
  h.Word(taint);
  return h.Finish();
}

void Add(StateFingerprint* fp, const StateFingerprint& term) {
  fp->lo += term.lo;
  fp->hi += term.hi;
}

void Sub(StateFingerprint* fp, const StateFingerprint& term) {
  fp->lo -= term.lo;
  fp->hi -= term.hi;
}

}  // namespace

StateFingerprint WorldState::FingerprintOf(const AccountMap& accounts) {
  StateFingerprint fp;
  for (const auto& [addr, a] : accounts) {
    Add(&fp, AccountTerm(addr));
    if (!a.balance.IsZero()) Add(&fp, BalanceTerm(addr, a.balance));
    if (a.HasCode()) Add(&fp, CodeTerm(addr, a.code));
    if (a.self_destructed) Add(&fp, SelfDestructedTerm(addr));
    a.storage.ForEachSlot(
        [&](const U256& key, const U256& value, uint32_t taint) {
          Add(&fp, SlotTerm(addr, key, value, taint));
        });
  }
  return fp;
}

// --------------------------------------------------------------- WorldState --

Account& WorldState::Ensure(const Address& addr) {
  auto it = accounts_.find(addr);
  if (it != accounts_.end()) return it->second;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kCreateAccount;
    e.addr = addr;
    journal_.push_back(std::move(e));
  }
  Add(&fingerprint_, AccountTerm(addr));
  return accounts_.try_emplace(addr).first->second;
}

void WorldState::SetBalance(const Address& addr, const U256& value) {
  WriteBalance(addr, Ensure(addr), value);
}

void WorldState::WriteBalance(const Address& addr, Account& a,
                              const U256& value) {
  if (a.balance == value) return;
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kBalance;
    e.addr = addr;
    e.prev_word = a.balance;
    journal_.push_back(std::move(e));
  }
  if (!a.balance.IsZero()) Sub(&fingerprint_, BalanceTerm(addr, a.balance));
  if (!value.IsZero()) Add(&fingerprint_, BalanceTerm(addr, value));
  a.balance = value;
}

bool WorldState::Transfer(const Address& from, const Address& to,
                          const U256& value) {
  if (value.IsZero()) return true;
  // Even a failed transfer brings `from` into existence (seed semantics,
  // pinned by the differential oracle).
  Account& src = Ensure(from);
  if (src.balance < value) return false;
  WriteBalance(from, src, src.balance - value);
  // Resolve `to` only after debiting `from`: the journal order is
  // create(from), debit, create(to), credit, and a self-transfer (dst is
  // src) nets to zero.
  Account& dst = Ensure(to);
  WriteBalance(to, dst, dst.balance + value);
  return true;
}

void WorldState::SetCode(const Address& addr, Bytes code) {
  WriteCode(addr, Ensure(addr), std::move(code));
}

void WorldState::WriteCode(const Address& addr, Account& a, Bytes code) {
  if (a.code == code) return;
  if (a.HasCode()) Sub(&fingerprint_, CodeTerm(addr, a.code));
  if (!code.empty()) Add(&fingerprint_, CodeTerm(addr, code));
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kCode;
    e.addr = addr;
    e.prev_code = std::move(a.code);
    journal_.push_back(std::move(e));
  }
  a.code = std::move(code);
  a.decoded.reset();  // the memoized IR no longer matches the bytes
}

void WorldState::SetStorage(const Address& addr, const U256& key,
                            const U256& value, uint32_t taint) {
  WriteStorage(addr, Ensure(addr), key, value, taint);
}

void WorldState::WriteStorage(const Address& addr, Account& a, const U256& key,
                              const U256& value, uint32_t taint) {
  auto [prev, prev_taint] = a.storage.Exchange(key, value, taint);
  if (prev == value && prev_taint == taint) return;  // no-op: nothing to undo
  if (!prev.IsZero() || prev_taint != 0) {
    Sub(&fingerprint_, SlotTerm(addr, key, prev, prev_taint));
  }
  if (!value.IsZero() || taint != 0) {
    Add(&fingerprint_, SlotTerm(addr, key, value, taint));
  }
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kStorage;
    e.addr = addr;
    e.key = key;
    e.prev_word = prev;
    e.prev_taint = prev_taint;
    journal_.push_back(std::move(e));
  }
}

void WorldState::MarkSelfDestructed(const Address& addr) {
  WriteSelfDestructed(addr, Ensure(addr));
}

void WorldState::WriteSelfDestructed(const Address& addr, Account& a) {
  if (a.self_destructed) return;
  Add(&fingerprint_, SelfDestructedTerm(addr));
  if (journaling()) {
    JournalEntry e;
    e.kind = JournalEntry::Kind::kSelfDestructed;
    e.addr = addr;
    e.prev_flag = false;
    journal_.push_back(std::move(e));
  }
  a.self_destructed = true;
}

size_t WorldState::Snapshot() {
  marks_.push_back({journal_.size(), fingerprint_});
  return marks_.size() - 1;
}

void WorldState::UnwindTo(const Mark& mark) {
  // Unwinding rebuilds the state the mark was taken in, so the fingerprint
  // saved with it is the digest of that state: no per-entry rehashing.
  fingerprint_ = mark.fingerprint;
  // Runs of entries usually name one account: look it up once per run.
  // Unwinding never inserts, so the cached iterator stays valid until the
  // account's own kCreateAccount erases it.
  Address run_addr;
  auto it = accounts_.end();
  bool in_run = false;
  while (journal_.size() > mark.journal) {
    JournalEntry& e = journal_.back();
    if (!in_run || !(run_addr == e.addr)) {
      run_addr = e.addr;
      it = accounts_.find(e.addr);
      in_run = true;
    }
    switch (e.kind) {
      case JournalEntry::Kind::kCreateAccount:
        if (it != accounts_.end()) {
          accounts_.erase(it);
          it = accounts_.end();
        }
        break;
      case JournalEntry::Kind::kBalance:
        if (it != accounts_.end()) it->second.balance = e.prev_word;
        break;
      case JournalEntry::Kind::kStorage:
        if (it != accounts_.end()) {
          it->second.storage.Store(e.key, e.prev_word, e.prev_taint);
        }
        break;
      case JournalEntry::Kind::kCode:
        if (it != accounts_.end()) {
          it->second.code = std::move(e.prev_code);
          it->second.decoded.reset();
        }
        break;
      case JournalEntry::Kind::kSelfDestructed:
        if (it != accounts_.end()) it->second.self_destructed = e.prev_flag;
        break;
    }
    journal_.pop_back();
  }
}

void WorldState::CaptureDelta(size_t journal_pos, Delta* out) const {
  out->writes_.clear();
  out->codes_.clear();
  const Address* last_addr = nullptr;  // runs of entries share an account
  const Account* last = nullptr;
  for (size_t i = journal_pos; i < journal_.size(); ++i) {
    const JournalEntry& e = journal_[i];
    if (last_addr == nullptr || !(*last_addr == e.addr)) {
      // Entries above the start mark are never unwound here, so every
      // account they name still exists.
      last = &accounts_.at(e.addr);
      last_addr = &e.addr;
    }
    const Account& a = *last;
    Delta::Write w{e.kind, e.addr, e.key, U256::Zero(), 0};
    switch (e.kind) {
      case JournalEntry::Kind::kCreateAccount:
      case JournalEntry::Kind::kSelfDestructed:
        break;
      case JournalEntry::Kind::kBalance:
        w.word = a.balance;
        break;
      case JournalEntry::Kind::kStorage:
        w.word = a.storage.Load(e.key);
        w.taint = a.storage.LoadTaint(e.key);
        break;
      case JournalEntry::Kind::kCode:
        out->codes_.push_back(a.code);
        break;
    }
    out->writes_.push_back(w);
  }
}

void WorldState::ApplyDelta(std::span<const Delta::Write> writes,
                            std::span<const Bytes> codes) {
  // The same journaled writes as the setters, with the account resolved
  // once per run of records naming it (Ensure never moves map nodes).
  size_t code = 0;
  const Address* last_addr = nullptr;
  Account* a = nullptr;
  for (const Delta::Write& w : writes) {
    if (last_addr == nullptr || !(*last_addr == w.addr)) {
      a = &Ensure(w.addr);
      last_addr = &w.addr;
    }
    switch (w.kind) {
      case JournalEntry::Kind::kCreateAccount:
        break;  // Ensure created it
      case JournalEntry::Kind::kBalance:
        WriteBalance(w.addr, *a, w.word);
        break;
      case JournalEntry::Kind::kStorage:
        WriteStorage(w.addr, *a, w.key, w.word, w.taint);
        break;
      case JournalEntry::Kind::kCode:
        WriteCode(w.addr, *a, codes[code++]);
        break;
      case JournalEntry::Kind::kSelfDestructed:
        WriteSelfDestructed(w.addr, *a);
        break;
    }
  }
}

void WorldState::RevertTo(size_t id) {
  if (id >= marks_.size()) return;
  UnwindTo(marks_[id]);
  marks_.resize(id);
}

void WorldState::Commit(size_t id) {
  if (id >= marks_.size()) return;
  marks_.resize(id);
  // With no live snapshot nothing can ever unwind these entries; drop them
  // so sessions that commit at top level don't grow the journal unboundedly.
  if (marks_.empty()) journal_.clear();
}

void WorldState::RestoreKeep(size_t id) {
  if (id >= marks_.size()) return;
  UnwindTo(marks_[id]);
  marks_.resize(id + 1);
}

}  // namespace mufuzz::evm
