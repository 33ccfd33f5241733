"""Operational forward-simulation checks (Sections 5.3 and 8).

Two checks are provided:

* :class:`AlgorithmToSpecSimulation` — drives the algorithm system
  ``ESDS-Alg x Users`` and the specification automaton ESDS-II in lock-step,
  following the step correspondence of Theorem 8.4: each ``request``,
  ``do_it``, ``send_response`` (→ ``calculate``), ``response`` and
  ``receive_gossip`` (→ ``add_constraints`` + ``stabilize``*) step of the
  algorithm is matched by the corresponding specification actions, whose
  preconditions are checked, and the simulation relation F (Fig. 9) is
  verified after every step.

* :func:`check_esds2_implements_esds1` — explores random executions of
  ``ESDS-II x Users`` and matches them against ESDS-I using the relation G
  and step correspondence of Fig. 4 / Section 5.3 (a stabilize with "gaps"
  is matched by stabilizing the whole prefix in ESDS-I).
"""

from __future__ import annotations

from typing import Any, Callable, List, Mapping, Optional, Tuple

from repro.algorithm.labels import label_sort_key
from repro.algorithm.system import AlgorithmSystem
from repro.automata.automaton import Action
from repro.automata.composition import Composition
from repro.automata.executions import RandomScheduler
from repro.automata.simulation import ForwardSimulationChecker, SimulationReport
from repro.common import SimulationRelationError
from repro.core.operations import OperationDescriptor
from repro.spec.esds1 import EsdsSpecI
from repro.spec.esds2 import EsdsSpecII
from repro.spec.users import Users


class AlgorithmToSpecSimulation:
    """Lock-step simulation check from ``ESDS-Alg x Users`` to ESDS-II.

    Use it exactly like :class:`~repro.algorithm.system.AlgorithmSystem`
    (``request`` / ``perform`` / ``run_random``); every step is mirrored on a
    private ESDS-II instance and the simulation relation is asserted.
    """

    def __init__(self, system: AlgorithmSystem, spec: Optional[EsdsSpecII] = None) -> None:
        self.system = system
        self.spec = spec if spec is not None else EsdsSpecII(system.data_type)
        self.abstract_steps = 0
        self.concrete_steps = 0
        self.check_relation()

    # -- driving ---------------------------------------------------------------

    def request(self, operation: OperationDescriptor) -> None:
        self.system.request(operation)
        self._spec_step(Action("request", operation=operation))
        self.concrete_steps += 1
        self.check_relation()

    def perform(self, kind: str, args: Tuple) -> Any:
        result = self.system.perform(kind, args)
        self._match(kind, args, result)
        self.concrete_steps += 1
        self.check_relation()
        return result

    def enabled_actions(self) -> List[Tuple[str, Tuple]]:
        return self.system.enabled_actions()

    # The system's own action-choice rule, over the mirrored ``perform``.
    random_step = AlgorithmSystem.random_step
    run_random = AlgorithmSystem.run_random

    # -- correspondence (Theorem 8.4) -------------------------------------------

    def _spec_step(self, action: Action) -> None:
        try:
            self.spec.step(action)
        except Exception as exc:
            raise SimulationRelationError(
                f"specification action {action!r} not enabled: {exc}"
            ) from exc
        self.abstract_steps += 1

    def _match(self, kind: str, args: Tuple, result: Any) -> None:
        if kind == "do_it":
            _replica, operation = args[0], args[1]
            waiting = any(operation in fe.wait for fe in self.system.frontends.values())
            if waiting:
                new_po = self.system.partial_order()
                self._spec_step(Action("enter", operation=operation, new_po=new_po))
            return
        if kind == "send_response":
            message = result
            self._spec_step(
                Action("calculate", operation=message.operation, value=message.value)
            )
            return
        if kind == "response":
            operation = args[0]
            self._spec_step(Action("response", operation=operation, value=result))
            return
        if kind == "receive_gossip":
            new_po = self.system.partial_order()
            self._spec_step(Action("add_constraints", new_po=new_po))
            stable = sorted(
                self.system.stable_everywhere(),
                key=lambda x: label_sort_key(self.system.minlabel(x.id)),
            )
            for operation in stable:
                self._spec_step(Action("stabilize", operation=operation))
            return
        # send_request, receive_request, receive_response, send_gossip: no
        # specification step; the relation must be preserved unchanged.

    # -- the relation F (Fig. 9) --------------------------------------------------

    def check_relation(self) -> None:
        system, spec = self.system, self.spec

        concrete_wait = set()
        for frontend in system.frontends.values():
            concrete_wait |= frontend.wait
        if spec.wait != concrete_wait:
            raise SimulationRelationError("relation F: wait sets differ")

        concrete_rept = set()
        for client, frontend in system.frontends.items():
            concrete_rept |= frontend.rept
            concrete_rept |= system.potential_rept(client)
        if spec.rept != concrete_rept:
            raise SimulationRelationError("relation F: rept sets differ")

        if spec.ops != system.ops():
            raise SimulationRelationError("relation F: ops sets differ")

        system_po = system.partial_order()
        if not set(spec.po.pairs) <= set(system_po.pairs):
            raise SimulationRelationError("relation F: spec po not contained in algorithm po")

        if spec.stabilized != system.stable_everywhere():
            raise SimulationRelationError("relation F: stabilized sets differ")

    def report(self) -> SimulationReport:
        return SimulationReport(
            steps_checked=self.concrete_steps, abstract_steps_taken=self.abstract_steps
        )


# ---------------------------------------------------------------------------
# ESDS-II implements ESDS-I (Section 5.3, Fig. 4)
# ---------------------------------------------------------------------------


def _esds2_component(snapshot: Mapping[str, Any]) -> Mapping[str, Any]:
    if "ESDS-II" in snapshot:
        return snapshot["ESDS-II"]
    return snapshot


def _relation_g(concrete_state: Mapping[str, Any], abstract: EsdsSpecI) -> bool:
    spec2 = _esds2_component(concrete_state)
    return (
        abstract.wait == spec2["wait"]
        and abstract.rept == spec2["rept"]
        and abstract.ops == spec2["ops"]
        and abstract.po == spec2["po"]
        and abstract.stabilized >= spec2["stabilized"]
    )


def _correspondence_g(
    action: Action,
    pre_state: Mapping[str, Any],
    post_state: Mapping[str, Any],
    abstract: EsdsSpecI,
) -> List[Action]:
    pre = _esds2_component(pre_state)
    if action.kind == "enter":
        operation = action["operation"]
        if operation in pre["ops"]:
            # A repeated enter acts exactly like add_constraints.
            return [Action("add_constraints", new_po=action["new_po"])]
        return [action]
    if action.kind == "stabilize":
        operation = action["operation"]
        po = pre["po"]
        prefix = sorted(
            (
                y
                for y in pre["ops"]
                if y not in abstract.stabilized
                and (po.precedes(y.id, operation.id) or y == operation)
            ),
            key=lambda y: (len(po.predecessors(y.id, {z.id for z in pre["ops"]})), repr(y.id)),
        )
        return [Action("stabilize", operation=y) for y in prefix]
    return [action]


def check_esds2_implements_esds1(
    data_type,
    operation_factory: Callable,
    steps: int = 60,
    seed: int = 0,
) -> SimulationReport:
    """Explore ``ESDS-II x Users`` at random and verify, step by step, the
    forward simulation to ESDS-I (Fig. 4).  Returns the check report."""
    spec2 = EsdsSpecII(data_type)
    users = Users(operation_factory)
    composition = Composition([spec2, users], name="ESDS-II x Users")
    spec1 = EsdsSpecI(data_type)

    checker = ForwardSimulationChecker(
        abstract=spec1,
        correspondence=_correspondence_g,
        relation=_relation_g,
        external_kinds={"request", "response"},
    )
    scheduler = RandomScheduler(composition, seed=seed, record_snapshots=True)
    checker.check_start(scheduler.execution.snapshots[0])

    for _ in range(steps):
        pre = composition.snapshot()
        action = scheduler.step()
        if action is None:
            break
        post = composition.snapshot()
        checker.check_step(action, pre, post)
    return checker.report()
