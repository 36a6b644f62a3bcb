"""The split of a long exact search: planning its subtrees, forking the workers that search
them, and taking their results in the search's own order.

`exact._dsatur` calls `search_rest` once a search from the root has run PARALLEL_AFTER
nodes; the module is imported then, so a process that never runs a search that long never
loads it. Workers are forked, not spawned: each runs only `exact._dsatur` on integers it
inherited, takes piece numbers from one pipe and writes each piece's result as one
fixed-size record to another, shared by all workers, while a spawned worker would start an
interpreter and import numpy and the package again, about 80 ms on a shared 2-CPU Xeon, a
fifth of the 0.4 s proofs it would share. No coloring crosses a pipe: a piece whose worker
found one, or which the budget cut, is searched again in the parent.
"""

from __future__ import annotations

import contextlib
import os
import signal
import struct

from . import exact

PIECES_PER_WORKER = 16  # subtrees a split aims at, per worker
PLAN_NODES = 5_000  # most nodes a split may spend planning
MAX_PIECES = 1_024  # most subtrees in one plan: their 4-byte numbers fit one PIPE_BUF
_RESULT = struct.Struct("<IIQ??")  # a worker's result: piece, k, nodes, cut, found a coloring


def _plan(index, best_k, lower, stack, split, budget):
    """The subtrees that a search from `stack` hands off at depth `split`, in the order it
    reaches them while best_k holds: (pieces, planning nodes, cut by `budget`). A piece is
    (stack prefix at the hand-off, path to search it from, offset); a stack deeper than
    `split` is inside a subtree already, so its first piece is that subtree's rest, searched
    from the whole stack, with offset 1 for the node the hand-off counts again."""
    pieces = []

    def record(prefix, k, _budget):
        if not pieces and len(stack[0]) > split:
            pieces.append((prefix, stack, 1))
        else:
            pieces.append((prefix, prefix, 0))
        return k, None, 1, len(pieces) == MAX_PIECES

    start = tuple(t[:split] for t in stack)
    _k, _colors, planned, cut = exact._dsatur(index, best_k, lower, budget, start, 0, split, record)
    return pieces, planned, cut


def search_rest(index, best_k, best_colors, lower, budget, stack, nodes, workers):
    """The rest of a search from the root that stands at `stack` after `nodes` nodes, with
    `budget` nodes left: its subtrees below the smallest split depth that gives at least
    PIECES_PER_WORKER per worker are searched ahead by forked workers, and a search over the
    depths above takes their results in its own order. The result is the sequential
    search's, node for node."""
    plan, split, planned = None, 0, 0
    for depth in range(1, len(index[0])):
        pieces, cost, cut = _plan(index, best_k, lower, stack, depth, PLAN_NODES - planned)
        planned += cost + depth  # the nodes visited and the stack positions replayed
        if cut:
            break
        if len(pieces) > 1:
            plan, split = pieces, depth
        if not pieces or len(pieces) >= PIECES_PER_WORKER * workers or planned >= PLAN_NODES:
            break
    if plan is None:
        sub_k, colors, more, cut = exact._dsatur(index, best_k, lower, budget, stack)
    else:
        offset = plan[0][2]
        crew = _Crew(index, lower, split, workers)
        try:
            crew.start(plan, best_k, budget + offset)
            start = tuple(t[:split] for t in stack)
            sub_k, colors, more, cut = exact._dsatur(
                index, best_k, lower, budget + offset, start, 0, split, crew.take
            )
        finally:
            crew.stop()
        nodes -= offset
    return sub_k, best_colors if colors is None else colors, nodes + more, cut


class _Crew:
    """Forked workers that search a plan's pieces ahead, and the results that the hand-off
    search takes from them in plan order. A crew has one task pipe, holding the plan's piece
    numbers (4 bytes each), and one result pipe shared by its workers, to which a worker
    writes each piece's result as one _RESULT record: piece, k, nodes, cut and whether it
    found a coloring. The numbers, written at once, and a record each fit PIPE_BUF, so each
    os.write is atomic, and each os.read of one number or one record returns a whole one.

    A piece's result depends only on its stack prefix, best_k, lower and the budget left, so
    one is taken only when the hand-off presents the planned prefix at the planned best_k.
    A piece is searched again here when its worker found a coloring, which stays with the
    worker, or used more nodes than are left, as one cut by the worker's budget, the most
    any piece of the plan can have. After best_k improves, the workers are stopped and the
    rest is planned again from the hand-off where it differs. Refused a pipe or a fork, a
    crew has fewer workers, or none, and the hand-off search takes its pieces here.
    """

    def __init__(self, index, lower, split, workers):
        self.index, self.lower, self.split, self.workers = index, lower, split, workers
        self.pids, self.out = [], None

    def start(self, plan, best_k, budget):
        """Fork the workers for `plan`, made at best_k with `budget` nodes left at its first piece."""
        self.plan, self.best_k, self.results, self.taken = plan, best_k, {}, 0
        tasks = out_w = None
        try:
            tasks, task_w = os.pipe()
            os.write(task_w, b"".join(j.to_bytes(4, "little") for j in range(len(plan))))  # at most PIPE_BUF
            os.close(task_w)  # so that the task pipe runs dry
            self.out, out_w = os.pipe()
            for _ in range(self.workers):
                pid = os.fork()
                if pid == 0:
                    code = 1
                    try:
                        while task := os.read(tasks, 4):
                            j = int.from_bytes(task, "little")
                            k, colors, nodes, cut = self._search(j, best_k, budget)
                            os.write(out_w, _RESULT.pack(j, k, nodes, cut, colors is not None))
                        code = 0
                    finally:
                        os._exit(code)
                self.pids.append(pid)
        except OSError:  # out of file descriptors or processes: fewer workers, or none
            pass
        finally:
            for fd in (tasks, out_w):
                if fd is not None:
                    os.close(fd)

    def take(self, prefix, best_k, budget):
        """hand_off for the search over the depths above the split: the planned piece's result."""
        j = self.taken
        if j == len(self.plan) or best_k != self.best_k or self.plan[j][0] != prefix:
            self.stop()
            pieces, _planned, _cut = _plan(self.index, best_k, self.lower, prefix, self.split, PLAN_NODES)
            self.start(pieces, best_k, budget)
            j = 0
        self.taken = j + 1
        if not self.pids:
            return self._search(j, best_k, budget)
        while j not in self.results:
            record = os.read(self.out, _RESULT.size)
            if not record:
                raise RuntimeError("a search worker exited without reporting its piece")
            piece, *result = _RESULT.unpack(record)
            self.results[piece] = result
        k, nodes, cut, found = self.results.pop(j)
        if found or nodes > budget:
            return self._search(j, best_k, budget)
        return k, None, nodes, cut

    def _search(self, j, best_k, budget):
        """Piece j's result, searched in this process with `budget` nodes left at its hand-off."""
        _prefix, path, offset = self.plan[j]
        k, colors, nodes, cut = exact._dsatur(self.index, best_k, self.lower, budget - offset, path, self.split)
        return k, colors, nodes + offset, cut

    def stop(self):
        """Stop and reap every worker and close the result pipe."""
        for pid in self.pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped already, as under SIGCHLD ignored
                os.waitpid(pid, 0)
        if self.out is not None:
            os.close(self.out)
        self.pids, self.out = [], None
