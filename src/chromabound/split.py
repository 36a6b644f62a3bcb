"""The split of a long exact search: planning its subtrees, forking the workers that search
them, and taking their results in the search's own order.

`exact._dsatur` calls `search_rest` once a search from the root has run PARALLEL_AFTER
nodes; the module is imported then, so a process that never runs a search that long never
loads it. Workers are forked, not spawned: each runs only `exact._dsatur` on integers it
inherited, takes its pieces from one pipe and writes its results to another, while a
spawned worker would start an interpreter and import numpy and the package again, about
80 ms on a shared 2-CPU Xeon, a fifth of the 0.4 s proofs it would share.
"""

from __future__ import annotations

import contextlib
import os
import pickle
import signal

from . import exact

PIECES_PER_WORKER = 16  # subtrees a split aims at, per worker
PLAN_NODES = 5_000  # most nodes a split may spend planning
MAX_PIECES = 1_024  # most subtrees in one plan: their 4-byte numbers fit one PIPE_BUF


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


def _read(fd, size):
    """`size` bytes from a pipe, or fewer if its writers have all closed it."""
    data = b""
    while len(data) < size:
        chunk = os.read(fd, size - len(data))
        if not chunk:
            break
        data += chunk
    return data


class _Crew:
    """Forked workers that search a plan's pieces ahead, each taking the next piece from a
    shared pipe, and the results that the hand-off search takes from them in plan order.

    A piece's result depends only on its stack prefix, best_k, lower and the budget left, so
    one is taken only when the hand-off presents the planned prefix at the planned best_k, and
    a piece cut by its worker's budget, which is the most any piece of the plan can have, is
    searched again here with the budget actually left. After best_k improves, the workers
    are stopped and the rest is planned again from the hand-off where it differs.
    """

    def __init__(self, index, lower, split, workers):
        self.index, self.lower, self.split, self.workers = index, lower, split, workers
        self.pids, self.fds = [], []

    def start(self, plan, best_k, budget):
        """Fork the workers for `plan`, made at best_k with `budget` nodes left at its first piece."""
        self.plan, self.best_k, self.budget = plan, best_k, budget
        self.results, self.taken, self.outs = {}, 0, []
        tasks, task_w = os.pipe()
        self.fds = [tasks, task_w]
        os.write(task_w, b"".join(j.to_bytes(4, "little") for j in range(len(plan))))  # at most PIPE_BUF
        self._close(task_w)
        self.notes, note_w = os.pipe()
        self.fds += (self.notes, note_w)
        for w in range(self.workers):
            out, out_w = os.pipe()
            self.fds += (out, out_w)
            try:
                pid = os.fork()
            except OSError:  # out of processes: fewer workers, or none and take searches here
                break
            if pid == 0:
                code = 1
                try:
                    for fd in self.fds:
                        if fd not in (tasks, note_w, out_w):
                            os.close(fd)
                    self._work(w, tasks, note_w, out_w)
                    code = 0
                finally:
                    os._exit(code)
            self.pids.append(pid)
            self.outs.append(out)
            self._close(out_w)
        self._close(tasks)
        self._close(note_w)

    def _work(self, w, tasks, notes, out):
        """A worker: search pieces until the task pipe runs dry, noting each on the shared
        `notes` (piece, worker, result size) before its pickled result goes to its own `out`."""
        while task := _read(tasks, 4):
            result = self._search(int.from_bytes(task, "little"), self.best_k, self.budget)
            body = memoryview(pickle.dumps(result))
            os.write(notes, task + w.to_bytes(4, "little") + len(body).to_bytes(4, "little"))
            while body:
                body = body[os.write(out, body):]

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
            note = _read(self.notes, 12)
            if len(note) < 12:
                raise RuntimeError("a search worker exited without reporting its piece")
            piece, w, size = (int.from_bytes(note[i : i + 4], "little") for i in (0, 4, 8))
            self.results[piece] = pickle.loads(_read(self.outs[w], size))
        result = self.results.pop(j)
        if result[2] > budget:
            # more nodes than are left: search the piece again, to where the budget cuts it
            return self._search(j, best_k, budget)
        return result

    def _search(self, j, best_k, budget):
        """Piece j's result, searched in this process with `budget` nodes left at its hand-off."""
        _prefix, path, offset = self.plan[j]
        k, colors, nodes, cut = exact._dsatur(self.index, best_k, self.lower, budget - offset, path, self.split)
        return k, colors, nodes + offset, cut

    def _close(self, fd):
        os.close(fd)
        self.fds.remove(fd)

    def stop(self):
        """Stop and reap every worker and close every pipe end."""
        for pid in self.pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            with contextlib.suppress(ChildProcessError):  # reaped already, as under SIGCHLD ignored
                os.waitpid(pid, 0)
        for fd in self.fds:
            os.close(fd)
        self.pids, self.fds = [], []
