"""A replicated bank account surviving a replica crash.

Run with::

    python examples/bank_with_failures.py

Deposits commute, so they are submitted as cheap non-strict operations;
withdrawals and audits need the eventual total order, so they are strict.
Halfway through, one replica crashes (its state survives on disk — the
paper's non-volatile-memory case, indistinguishable from message delay) and
later recovers — the service keeps answering non-strict requests throughout, and every strict response is still explained
by the eventual total order (checked at the end with the trace checker).
"""

from repro import (
    BankAccountType,
    FaultSchedule,
    ReplicaCrash,
    SimulatedCluster,
    SimulationParams,
    check_trace,
)


def main() -> None:
    params = SimulationParams(df=1.0, dg=1.0, gossip_period=2.0, retransmit_interval=4.0)
    cluster = SimulatedCluster(
        BankAccountType(),
        num_replicas=3,
        client_ids=["teller-1", "teller-2", "auditor"],
        params=params,
        seed=3,
    )

    # Crash replica r1 at t=8 (state kept on disk) and bring it back at t=20.
    FaultSchedule().add(
        ReplicaCrash("r1", at=8.0, recover_at=20.0, volatile_memory=False)
    ).install(cluster)
    print("fault schedule: replica r1 crashes at t=8 and recovers at t=20\n")

    print("=== tellers make deposits (non-strict, commuting) ===")
    for index in range(6):
        teller = "teller-1" if index % 2 == 0 else "teller-2"
        _, balance_seen = cluster.execute(teller, BankAccountType.deposit(100))
        print(f"  t={cluster.now:5.1f}  {teller} deposited 100 "
              f"(balance seen locally: {balance_seen})")

    print("\n=== a withdrawal must be strict (it can fail) ===")
    _, after_withdrawal = cluster.execute("teller-1", BankAccountType.withdraw(450), strict=True)
    print(f"  t={cluster.now:5.1f}  withdraw 450 -> balance {after_withdrawal}")

    print("\n=== the auditor takes a strict balance reading ===")
    _, audited = cluster.execute("auditor", BankAccountType.balance(), strict=True)
    print(f"  t={cluster.now:5.1f}  audited balance: {audited}")

    expected = 6 * 100 - 450
    assert audited == expected, f"audit mismatch: {audited} != {expected}"

    check_trace(cluster).raise_for_failure()
    print("\nevery strict response is explained by the eventual total order "
          "(Theorem 5.8 check passed)")
    strict = cluster.metrics.latency_summary("strict")
    nonstrict = cluster.metrics.latency_summary("nonstrict_no_prev")
    print(f"mean latency: non-strict {nonstrict.mean:.2f}, strict {strict.mean:.2f}")


if __name__ == "__main__":
    main()
