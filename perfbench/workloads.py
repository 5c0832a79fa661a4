"""The benchmark's workloads: seeded inputs, scripts and reference answers.

Every input is generated from the command-line seed; the server only
ever sees the encoded request bodies built here.  A workload is

* an **upload** body (the ensemble sent inline once, through ``plan``
  with no requests, so later calls can address it by fingerprint);
* a **warm-up** script, run once per set-up by a single client;
* one **client script** per closed-loop client: a list of operations,
  each ``(body, kind)`` where ``kind`` says whether the response opens a
  session (:data:`OPENS`) or the body needs the open session's id
  substituted for :data:`SID` (:data:`IN_SESSION`).

Reference answers come from an in-process :class:`EngineService` with
no coalescer and no journal, fed the same bodies.  A served response is
correct when its bytes equal the reference's ``json.dumps`` output with
session ids masked — the server encodes with the same ``json.dumps``, so
equal bytes mean equal decisions.
"""

from __future__ import annotations

import json

import numpy as np

#: Placeholder for the session id inside scripted session bodies.
SID = b"@SID@"

PLAIN, OPENS, IN_SESSION = 0, 1, 2

API_VERSION = 1
REQUESTS_PER_CALL = 10
K = 3

#: Catalog and script sizes per ``--size``.  ``tiny`` is the smoke
#: test's size: same code paths, a fraction of the work.
#: ``rate_ceiling`` is a generous bound on one client's op rate, used
#: only to size the pre-encoded inputs of the stateless workloads.
SIZES = {
    "full": {
        "resolve-hot": {"strategies": 100, "pool": 1000, "calls": 1024,
                        "rate_ceiling": 5000},
        "alternatives-20k": {"strategies": 20_000, "rate_ceiling": 100},
        "stream-journaled": {"strategies": 400, "arrivals": 240},
    },
    "tiny": {
        "resolve-hot": {"strategies": 20, "pool": 50, "calls": 16,
                        "rate_ceiling": 5000},
        "alternatives-20k": {"strategies": 300, "rate_ceiling": 2000},
        "stream-journaled": {"strategies": 40, "arrivals": 48},
    },
}

BURST = 12
AVAILABILITY = {"resolve-hot": 0.6, "alternatives-20k": 0.6,
                "stream-journaled": 0.7}
_TAGS = {"resolve-hot": 1, "alternatives-20k": 2, "stream-journaled": 3}


def _rng(seed: int, workload: str, *stream: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), _TAGS[workload], *stream])
    )


def _spec(workload: str) -> dict:
    from repro.api import EngineSpec

    # ``max`` aggregation is ``repro serve``'s default: with ``sum`` a
    # request needs k times the pool and next to nothing is admitted.
    return EngineSpec(
        availability=AVAILABILITY[workload], aggregation="max"
    ).to_dict()


def _encode(payload: dict) -> bytes:
    return json.dumps(payload).encode()


def _requests_wire(params: np.ndarray, ids) -> list:
    """Wire requests from an ``(m, 3)`` array of (quality, cost, latency)."""
    return [
        {
            "request_id": request_id,
            "params": {"quality": q, "cost": c, "latency": l},
            "k": K,
        }
        for request_id, (q, c, l) in zip(ids, params.tolist())
    ]


def _fresh_params(rng: np.random.Generator, m: int) -> np.ndarray:
    """Request parameters in the paper's range (quality offset by 0.25,
    as :func:`repro.workloads.generators.generate_requests` draws them)."""
    draws = rng.uniform(0.625, 1.0, size=(m, 3))
    draws[:, 0] -= 0.25
    return draws


class Workload:
    """Seeded inputs for one named workload at one size."""

    def __init__(self, name: str, seed: int, size: str = "full"):
        from repro.api import EnsembleRef
        from repro.workloads.generators import generate_strategy_ensemble

        self.name, self.seed = name, int(seed)
        self.dims = SIZES[size][name]
        ensemble = generate_strategy_ensemble(
            self.dims["strategies"], "uniform", _rng(seed, name, 0)
        )
        ref = EnsembleRef.of(ensemble)
        self.spec = _spec(name)
        self.by_fingerprint = {"fingerprint": ref.fingerprint}
        self.upload = _encode({
            "api_version": API_VERSION,
            "type": "plan",
            "ensemble": ref.to_dict(),
            "spec": self.spec,
            "requests": [],
        })
        if name == "resolve-hot":
            self._init_resolve_hot()

    # ------------------------------------------------------------ bodies
    def _call(self, kind: str, requests: list) -> bytes:
        return _encode({
            "api_version": API_VERSION,
            "type": kind,
            "ensemble": self.by_fingerprint,
            "spec": self.spec,
            "requests": requests,
        })

    def _init_resolve_hot(self) -> None:
        rng = _rng(self.seed, self.name, 1)
        pool = _requests_wire(
            _fresh_params(rng, self.dims["pool"]),
            [f"p{i}" for i in range(self.dims["pool"])],
        )
        self.warmup_bodies = [
            self._call("resolve", pool[i : i + REQUESTS_PER_CALL])
            for i in range(0, len(pool), REQUESTS_PER_CALL)
        ]
        self.call_bodies = [
            self._call(
                "resolve",
                [pool[j] for j in rng.choice(
                    len(pool), REQUESTS_PER_CALL, replace=False
                )],
            )
            for _ in range(self.dims["calls"])
        ]

    # ----------------------------------------------------------- scripts
    def warmup(self) -> list:
        """The stateless workloads' fixed warm-up script (after the
        upload); ``stream-journaled`` warms up with :meth:`lifecycle`
        ``-1``."""
        if self.name == "resolve-hot":
            return [(body, PLAIN) for body in self.warmup_bodies]
        return [(self._alternatives_body(_rng(self.seed, self.name, 1)),
                 PLAIN)]

    def _alternatives_body(self, rng: np.random.Generator) -> bytes:
        return self._call(
            "alternatives",
            _requests_wire(
                _fresh_params(rng, REQUESTS_PER_CALL),
                [f"a{i}" for i in range(REQUESTS_PER_CALL)],
            ),
        )

    def client_ops(self, client: int, budget: int) -> list:
        """Client ``client``'s first ``budget`` stateless operations.

        ``resolve-hot`` walks a seeded permutation of the call pool over
        and over; ``alternatives-20k`` draws fresh parameters per call.
        (``stream-journaled`` scripts come from :meth:`lifecycle`.)
        """
        rng = _rng(self.seed, self.name, 2, client)
        if self.name == "resolve-hot":
            order = []
            while len(order) < budget:
                order.extend(rng.permutation(len(self.call_bodies)).tolist())
            return [(self.call_bodies[i], PLAIN) for i in order[:budget]]
        return [(self._alternatives_body(rng), PLAIN) for _ in range(budget)]

    # ---------------------------------------------------------- sessions
    def lifecycle(self, index: int, service) -> list:
        """One session lifecycle, scripted against a reference service.

        ``submit_batch`` bursts of :data:`BURST` fresh arrivals; every
        other burst, a ``complete`` wave releases half of the admitted
        reservations and a ``retry_deferred`` drains the deferred queue;
        then ``close_session``.  Which ids a wave completes depends on
        what was admitted, so the script is built by driving the
        reference.  Returns ``[(body, kind, expected, decisions)]``,
        where ``decisions`` counts the arrivals an op decided.
        Index ``-1`` is the warm-up lifecycle.
        """
        rng = _rng(self.seed, self.name, 3, index + 1)
        arrivals = _requests_wire(
            _fresh_params(rng, self.dims["arrivals"]),
            [f"L{index}-{i}" for i in range(self.dims["arrivals"])],
        )
        script: list = []
        sid = {"ref": None}

        def run(payload: dict, kind: int) -> dict:
            body = _encode(payload)
            sent = body if sid["ref"] is None else body.replace(
                SID, sid["ref"].encode()
            )
            answer = service.handle_dict(json.loads(sent))
            if kind == OPENS:
                sid["ref"] = answer["session_id"]
            expected = _encode(answer).replace(sid["ref"].encode(), SID)
            # Arrivals decided: a retry drain re-decides requests that
            # were already counted when they arrived.
            decisions = (
                len(answer["decisions"])
                if answer.get("type") == "submit_batch_result" else 0
            )
            script.append((body, kind, expected, decisions))
            return answer

        first = run({
            "api_version": API_VERSION,
            "type": "submit_batch",
            "ensemble": self.by_fingerprint,
            "spec": self.spec,
            "requests": arrivals[:BURST],
        }, OPENS)
        admitted = _admitted(first)
        session = {"api_version": API_VERSION, "session_id": SID.decode()}
        for start in range(BURST, len(arrivals), BURST):
            answer = run({
                **session, "type": "submit_batch",
                "requests": arrivals[start : start + BURST],
            }, IN_SESSION)
            admitted.extend(_admitted(answer))
            if admitted and (start // BURST) % 2 == 0:
                wave = max(1, len(admitted) // 2)
                run({**session, "type": "complete",
                     "request_ids": admitted[:wave]}, IN_SESSION)
                del admitted[:wave]
                answer = run({**session, "type": "retry_deferred"}, IN_SESSION)
                admitted.extend(_admitted(answer))
        run({**session, "type": "close_session"}, IN_SESSION)
        return script


def _admitted(answer: dict) -> list:
    return [
        d["request"]["request_id"]
        for d in answer.get("decisions", ())
        if d["status"] == "admitted"
    ]


def reference_service(workload: Workload):
    """A fresh in-process service holding the workload's ensemble."""
    from repro.api import EngineService

    service = EngineService()
    answer = service.handle_dict(json.loads(workload.upload))
    if answer.get("type") == "error":
        raise RuntimeError(f"reference upload failed: {answer}")
    return service
