"""Serial data types (Section 2.2 of the paper).

A *serial data type* describes the sequential behaviour of the object managed
by the data service: a set of states with a distinguished initial state, a set
of reportable values, a set of operators, and a transition function
``tau : State x Operator -> State x Value``.

The ESDS specification and algorithm are parameterised by a serial data type
and never look inside it, so any type implementing
:class:`~repro.datatypes.base.SerialDataType` can be plugged in.  This package
ships the types used throughout the examples, tests and benchmarks:

* :class:`~repro.datatypes.register.RegisterType` — read/write register,
* :class:`~repro.datatypes.counter.CounterType` — increment/add/double/read,
* :class:`~repro.datatypes.gset.GSetType` — grow-only set,
* :class:`~repro.datatypes.directory.DirectoryType` — name -> attribute map
  (the directory-service object of Section 11.2),
* :class:`~repro.datatypes.appendlog.AppendLogType` — append-only log,
* :class:`~repro.datatypes.queue.QueueType` — FIFO queue,
* :class:`~repro.datatypes.bank.BankAccountType` — deposit/withdraw/balance.

Each type also exposes the *commutativity* / *obliviousness* / *independence*
predicates of Section 10.3, which the ``Commute`` replica variant exploits.
"""

from repro.datatypes.base import (
    Operator,
    SerialDataType,
    apply_sequence,
)
from repro.datatypes.register import RegisterType
from repro.datatypes.counter import CounterType
from repro.datatypes.gset import GSetType
from repro.datatypes.directory import DirectoryType
from repro.datatypes.appendlog import AppendLogType
from repro.datatypes.queue import QueueType
from repro.datatypes.bank import BankAccountType

__all__ = [
    "Operator",
    "SerialDataType",
    "apply_sequence",
    "RegisterType",
    "CounterType",
    "GSetType",
    "DirectoryType",
    "AppendLogType",
    "QueueType",
    "BankAccountType",
]
