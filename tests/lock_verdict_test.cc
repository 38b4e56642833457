// Lock-manager verdict tests that cut across the protocol's switches:
//  * FCFS (paper footnote 5) — a request must not jump an earlier-queued
//    conflicting waiter, also when its own tree already holds a lock in the
//    same class on the object;
//  * one queue entry per granted acquisition;
//  * key-range locks (§5.8) — disjoint key intervals relieve a matrix
//    conflict, and the disjointness precheck still respects FCFS;
//  * pinned verdicts — a scripted single-threaded history touching every
//    verdict family produces a fixed status sequence, with keyrange_locks
//    off and on.
#include <gtest/gtest.h>

#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cc/compatibility.h"
#include "cc/lock_manager.h"
#include "cc/subtxn.h"

namespace semcc {
namespace {

constexpr TypeId kItemT = 1;  // Ma/Mb commute, Ma/Ma conflict, Mb/Mb commute
constexpr TypeId kAtomT = 2;  // atomic leaves via generic Get/Put
constexpr TypeId kFcfsT = 3;  // Fa/Fa commute, Fa/Fb conflict, Fb/Fb conflict
constexpr TypeId kSetT = 5;   // set object via generic Insert/Remove
constexpr TypeId kKrngT = 6;  // Wr/Wr matrix-CONFLICT + point key footprint
constexpr Oid kObjA = 100;
constexpr Oid kObjB = 200;
constexpr Oid kObjC = 300;
constexpr Oid kObjF = 400;
constexpr Oid kObjK = 500;

struct LockVerdictTest : public ::testing::Test {
  LockVerdictTest() {
    compat.Define(kItemT, "Ma", "Mb", true);
    compat.Define(kItemT, "Ma", "Ma", false);
    compat.Define(kItemT, "Mb", "Mb", true);
    compat.Define(kFcfsT, "Fa", "Fa", true);
    compat.Define(kFcfsT, "Fa", "Fb", false);
    compat.Define(kFcfsT, "Fb", "Fb", false);
    // The keyrange escalation shape (§5.8): the matrix says Wr always
    // conflicts with Wr, but a non-exact footprint says each invocation
    // only touches the point key args[0] — so with keyrange_locks the lock
    // manager can prove Wr(1) and Wr(2) independent and skip the cell.
    compat.Define(kKrngT, "Wr", "Wr", false);
    MethodSpec wr;
    wr.reads = KeyRef::Point(0);
    wr.writes = KeyRef::Point(0);
    wr.exact = false;
    compat.DefineMethodSpec(kKrngT, "Wr", wr);
  }

  static ProtocolOptions Opts() {
    ProtocolOptions o;
    o.wait_timeout = std::chrono::milliseconds(20000);
    return o;
  }

  std::unique_ptr<LockManager> Make(ProtocolOptions o) {
    return std::make_unique<LockManager>(o, &compat);
  }

  void Complete(LockManager* lm, SubTxn* t) {
    t->set_state(TxnState::kCommitted);
    lm->OnSubTxnCompleted(t);
  }

  void Release(LockManager* lm, TxnTree* tree, TxnState final_state) {
    tree->root()->set_state(final_state);
    lm->OnSubTxnCompleted(tree->root());
    lm->ReleaseTree(tree->root());
  }

  CompatibilityRegistry compat;
};

// --- one entry per grant -------------------------------------------------

TEST_F(LockVerdictTest, RepeatedAcquisitionsKeepOneEntryEach) {
  ProtocolOptions o = Opts();
  o.debug_lock_checks = true;
  auto lm = Make(o);
  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  for (int i = 0; i < 3; ++i) {
    SubTxn* n = t1.NewNode(t1.root(), kObjA, kItemT, "Mb", {});
    ASSERT_TRUE(lm->Acquire(n, LockTarget::ForObject(kObjA), true).ok());
  }
  EXPECT_EQ(lm->LocksOn(LockTarget::ForObject(kObjA)).size(), 3u);
  EXPECT_EQ(lm->stats().granted_entries, 3u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(t1.root());
}

// --- FCFS regression (paper footnote 5) -----------------------------------

TEST_F(LockVerdictTest, ReacquireDoesNotBypassEarlierConflictingWaiter) {
  // A holds Fa twice. B's conflicting Fb queues behind it. Then (1) C — a
  // different tree — requests Fa, which commutes with A's granted locks but
  // must still queue behind B's earlier conflicting request, and (2) A
  // itself re-requests Fa, which must queue behind B for the same reason.
  ProtocolOptions o = Opts();
  o.deadlock_detection = false;  // A->B->A wait cycle is broken manually
  auto lm = Make(o);

  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  SubTxn* a1 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a1, LockTarget::ForObject(kObjF), true).ok());
  SubTxn* a2 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});
  ASSERT_TRUE(lm->Acquire(a2, LockTarget::ForObject(kObjF), true).ok());

  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* b1 = tb.NewNode(tb.root(), kObjF, kFcfsT, "Fb", {});
  SubTxn* c1 = tc.NewNode(tc.root(), kObjF, kFcfsT, "Fa", {});
  SubTxn* a3 = ta.NewNode(ta.root(), kObjF, kFcfsT, "Fa", {});

  Status st_b, st_c, st_a3;
  std::thread thread_b([&]() {
    st_b = lm->Acquire(b1, LockTarget::ForObject(kObjF), true);
    Release(lm.get(), &tb, TxnState::kAborted);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_c([&]() {
    st_c = lm->Acquire(c1, LockTarget::ForObject(kObjF), true);
  });
  while (lm->NumWaiters() != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_a3([&]() {
    st_a3 = lm->Acquire(a3, LockTarget::ForObject(kObjF), true);
  });
  while (lm->NumWaiters() != 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // All three are genuinely queued: C despite commuting with every granted
  // lock, and A despite already holding Fa twice.
  EXPECT_GE(lm->stats().blocked_acquires, 3u);

  // Break the B<->A wait cycle by aborting B; C and A must then be granted
  // (their remaining verdicts are all nil).
  lm->OnAbortRequested(tb.root());
  thread_b.join();
  thread_c.join();
  thread_a3.join();
  EXPECT_TRUE(st_b.IsAborted()) << st_b.ToString();
  EXPECT_TRUE(st_c.ok()) << st_c.ToString();
  EXPECT_TRUE(st_a3.ok()) << st_a3.ToString();
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(tc.root());
  lm->ReleaseTree(ta.root());
}

// --- key-range locks (§5.8) ------------------------------------------------

TEST_F(LockVerdictTest, KeyrangeRelievesDisjointMatrixConflict) {
  // Two foreign Wr invocations: the matrix cell is CONFLICT, but the key
  // intervals [1,1] and [2,2] are disjoint, so with keyrange_locks the
  // second acquisition is granted without a conflict test. Same key still
  // blocks, and with the flag off the matrix verdict stands unrelieved.
  ProtocolOptions o = Opts();
  o.keyrange_locks = true;
  o.wait_timeout = std::chrono::milliseconds(50);
  auto lm = Make(o);
  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  SubTxn* w1 = ta.NewNode(ta.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w2 = tb.NewNode(tb.root(), kObjK, kKrngT, "Wr", {Value(2)});
  SubTxn* w1x = tc.NewNode(tc.root(), kObjK, kKrngT, "Wr", {Value(1)});
  ASSERT_TRUE(lm->Acquire(w1, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(lm->Acquire(w2, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_GE(lm->stats().keyrange_skips, 1u);
  EXPECT_GE(lm->stats().commute_grants, 1u);
  EXPECT_TRUE(
      lm->Acquire(w1x, LockTarget::ForObject(kObjK), true).IsTimedOut());
  lm->ReleaseTree(tc.root());
  lm->ReleaseTree(tb.root());
  lm->ReleaseTree(ta.root());

  ProtocolOptions off = o;
  off.keyrange_locks = false;
  auto lm2 = Make(off);
  TxnTree td(TxnTree::NextId(), "D", kDatabaseOid, 0);
  TxnTree te(TxnTree::NextId(), "E", kDatabaseOid, 0);
  SubTxn* w3 = td.NewNode(td.root(), kObjK, kKrngT, "Wr", {Value(1)});
  SubTxn* w4 = te.NewNode(te.root(), kObjK, kKrngT, "Wr", {Value(2)});
  ASSERT_TRUE(lm2->Acquire(w3, LockTarget::ForObject(kObjK), true).ok());
  EXPECT_TRUE(
      lm2->Acquire(w4, LockTarget::ForObject(kObjK), true).IsTimedOut());
  EXPECT_EQ(lm2->stats().keyrange_skips, 0u);
  lm2->ReleaseTree(te.root());
  lm2->ReleaseTree(td.root());
}

TEST_F(LockVerdictTest, KeyrangeFcfsQueuesBehindOverlappingRangeWaiter) {
  // FCFS (footnote 5) with intervals: D's Insert(7) is disjoint from every
  // GRANTED lock, but an earlier-queued RangeScan[1,9] waiter overlaps key
  // 7 — D must queue behind it, not jump the line via the disjointness
  // precheck.
  ProtocolOptions o = Opts();
  o.keyrange_locks = true;
  auto lm = Make(o);
  const LockTarget target = LockTarget::ForObject(kObjC);

  TxnTree ta(TxnTree::NextId(), "A", kDatabaseOid, 0);
  SubTxn* a1 = ta.NewNode(ta.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(5)});
  ASSERT_TRUE(lm->Acquire(a1, target, true).ok());

  TxnTree tb(TxnTree::NextId(), "B", kDatabaseOid, 0);
  TxnTree tc(TxnTree::NextId(), "C", kDatabaseOid, 0);
  TxnTree td(TxnTree::NextId(), "D", kDatabaseOid, 0);
  SubTxn* b1 = tb.NewNode(tb.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(5)});
  SubTxn* c1 = tc.NewNode(tc.root(), kObjC, kSetT, generic_ops::kRangeScan,
                          {Value(1), Value(9)});
  SubTxn* d1 = td.NewNode(td.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(7)});

  Status st_b, st_c, st_d;
  std::thread thread_b([&]() {
    st_b = lm->Acquire(b1, target, true);
    if (st_b.ok()) Complete(lm.get(), b1);
    Release(lm.get(), &tb, TxnState::kCommitted);
  });
  while (lm->NumWaiters() != 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_c([&]() {
    st_c = lm->Acquire(c1, target, false);
    if (st_c.ok()) Complete(lm.get(), c1);
    Release(lm.get(), &tc, TxnState::kCommitted);
  });
  while (lm->NumWaiters() != 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::thread thread_d([&]() { st_d = lm->Acquire(d1, target, true); });
  while (lm->NumWaiters() != 3) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // D is genuinely queued: its interval [7,7] passes A's granted [5,5] and
  // B's waiting [5,5], but C's earlier-queued overlapping [1,9] holds it.
  EXPECT_EQ(lm->NumWaiters(), 3u);

  // Release the chain: A's commit admits B, B's admits C, C's admits D.
  Complete(lm.get(), a1);
  Release(lm.get(), &ta, TxnState::kCommitted);
  thread_b.join();
  thread_c.join();
  thread_d.join();
  EXPECT_TRUE(st_b.ok()) << st_b.ToString();
  EXPECT_TRUE(st_c.ok()) << st_c.ToString();
  EXPECT_TRUE(st_d.ok()) << st_d.ToString();
  EXPECT_GE(lm->stats().keyrange_skips, 2u);
  EXPECT_EQ(lm->CheckInvariantsNow(), 0u);
  lm->ReleaseTree(td.root());
}

// --- pinned verdicts -------------------------------------------------------

// Runs a fixed single-threaded history touching every verdict family —
// commuting grants, Case-1 relief, retained-lock root waits (as timeouts),
// key-dependent generic conflicts, abort, compensation, reuse after
// release — and returns the sequence of status codes followed by the
// invariant-violation count. Blocked acquires deterministically surface as
// TimedOut via the short wait_timeout.
std::vector<int> RunVerdictScript(CompatibilityRegistry* compat,
                                  bool keyrange) {
  ProtocolOptions o;
  o.debug_lock_checks = false;
  o.wait_timeout = std::chrono::milliseconds(50);
  // Key-range locks must be verdict-preserving on this script: every cell
  // they skip (disjoint generic set keys) is one the key predicates already
  // resolve to commute, and overlapping/same-key pairs fall through to the
  // ordinary conflict test.
  o.keyrange_locks = keyrange;
  LockManager lm(o, compat);
  std::vector<int> codes;
  auto rec = [&codes](const Status& st) {
    codes.push_back(static_cast<int>(st.code()));
  };
  auto obj = [](Oid oid) { return LockTarget::ForObject(oid); };

  TxnTree t1(TxnTree::NextId(), "T1", kDatabaseOid, 0);
  TxnTree t2(TxnTree::NextId(), "T2", kDatabaseOid, 0);
  TxnTree t3(TxnTree::NextId(), "T3", kDatabaseOid, 0);
  TxnTree t4(TxnTree::NextId(), "T4", kDatabaseOid, 0);

  // Retained-lock + Case-1 setup: T1 runs Ma{Put} and completes both.
  SubTxn* ma1 = t1.NewNode(t1.root(), kObjA, kItemT, "Ma", {});
  SubTxn* put1 = t1.NewNode(ma1, kObjB, kAtomT, generic_ops::kPut, {Value(1)});
  rec(lm.Acquire(ma1, obj(kObjA), true));
  rec(lm.Acquire(put1, obj(kObjB), true));
  put1->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(put1);
  ma1->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(ma1);

  // T2: commuting grant on kObjA, then Case-1 grant on the leaf below.
  SubTxn* mb1 = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
  SubTxn* get1 = t2.NewNode(mb1, kObjB, kAtomT, generic_ops::kGet, {});
  rec(lm.Acquire(mb1, obj(kObjA), true));
  rec(lm.Acquire(get1, obj(kObjB), false));

  // T2 re-acquires its own class twice.
  for (int i = 0; i < 2; ++i) {
    SubTxn* again = t2.NewNode(t2.root(), kObjA, kItemT, "Mb", {});
    rec(lm.Acquire(again, obj(kObjA), true));
  }

  // T3 conflicts with T1's retained Ma: root wait -> TimedOut.
  SubTxn* ma2 = t3.NewNode(t3.root(), kObjA, kItemT, "Ma", {});
  rec(lm.Acquire(ma2, obj(kObjA), true));

  // Key-addressed generics: T2 inserts 7 and 8; T4's Insert(7) conflicts,
  // its Insert(9) commutes.
  SubTxn* i7 = t2.NewNode(t2.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(7)});
  SubTxn* i8 = t2.NewNode(t2.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(8)});
  rec(lm.Acquire(i7, obj(kObjC), true));
  rec(lm.Acquire(i8, obj(kObjC), true));
  SubTxn* i7x = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                           {Value(7)});
  SubTxn* i9 = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                          {Value(9)});
  rec(lm.Acquire(i7x, obj(kObjC), true));
  rec(lm.Acquire(i9, obj(kObjC), true));

  // Abort request: T4's next acquire fails fast; its compensating Remove(9)
  // is exempt and still goes through.
  lm.OnAbortRequested(t4.root());
  SubTxn* i10 = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kInsert,
                           {Value(10)});
  rec(lm.Acquire(i10, obj(kObjC), true));
  SubTxn* comp = t4.NewNode(t4.root(), kObjC, kSetT, generic_ops::kRemove,
                            {Value(9)});
  comp->set_compensation(true);
  rec(lm.Acquire(comp, obj(kObjC), true));

  // Tear down in a fixed order, then lock the released object again.
  t1.root()->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(t1.root());
  lm.ReleaseTree(t1.root());
  t2.root()->set_state(TxnState::kCommitted);
  lm.OnSubTxnCompleted(t2.root());
  lm.ReleaseTree(t2.root());
  t4.root()->set_state(TxnState::kAborted);
  lm.OnSubTxnCompleted(t4.root());
  lm.ReleaseTree(t4.root());
  lm.ReleaseTree(t3.root());

  TxnTree t5(TxnTree::NextId(), "T5", kDatabaseOid, 0);
  SubTxn* ma3 = t5.NewNode(t5.root(), kObjA, kItemT, "Ma", {});
  rec(lm.Acquire(ma3, obj(kObjA), true));
  lm.ReleaseTree(t5.root());

  codes.push_back(static_cast<int>(lm.CheckInvariantsNow()));
  return codes;
}

TEST_F(LockVerdictTest, ScriptedHistoryMatchesPinnedVerdicts) {
  constexpr int kOk = static_cast<int>(StatusCode::kOk);
  constexpr int kTimedOut = static_cast<int>(StatusCode::kTimedOut);
  constexpr int kAborted = static_cast<int>(StatusCode::kAborted);
  // One code per Acquire in script order, then the violation count (0).
  const std::vector<int> expected = {
      kOk, kOk,        // T1: Ma, its Put
      kOk, kOk,        // T2: commuting Mb, Case-1 Get below it
      kOk, kOk,        // T2: Mb re-acquired twice
      kTimedOut,       // T3: Ma vs T1's retained Ma -> root wait
      kOk, kOk,        // T2: Insert(7), Insert(8)
      kTimedOut, kOk,  // T4: Insert(7) conflicts, Insert(9) commutes
      kAborted, kOk,   // T4 flagged: Insert(10) fails, compensation passes
      kOk,             // T5: Ma after every tree released
      0};
  for (bool keyrange : {false, true}) {
    EXPECT_EQ(RunVerdictScript(&compat, keyrange), expected)
        << "keyrange_locks=" << keyrange;
  }
}

}  // namespace
}  // namespace semcc
