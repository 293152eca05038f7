"""Wire fuzzer over every ``/v1`` route (``repro.service.api.ROUTES``).

For each row, with tenant auth off and on, hypothesis sends requests
built from the row: arbitrary JSON bodies, one-field mutations of a
valid body, raw garbage, and query values and path parameters that
include ``%2F``, ``..``, and non-ASCII.  Every answer must be the row's
success status or a documented error (``ERROR_STATUS``) whose JSON body
names the code matching its status — never ``internal`` — and no
request may hang.

Campaign bodies name a ``target_dir`` that does not exist and shard
bodies plan no experiments, so whatever the server accepts runs nothing.
"""

import hashlib
import http.client
import json
import os
from urllib.parse import quote, unquote

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.faultmodel.library import gswfit_model
from repro.faultmodel.model import FaultModel
from repro.orchestrator.campaign import CampaignConfig
from repro.service.api import (
    ERROR_STATUS,
    JSON_BODY,
    NO_BODY,
    OPTIONAL_JSON,
    RAW_BODY,
    ROUTE,
    ROUTES,
    campaign_config_to_dict,
)
from repro.service.http import start_server
from repro.service.service import ProFIPyService
from repro.service.tenants import TenantDirectory
from repro.workload.spec import WorkloadSpec

TENANT = "fuzz"
TOKEN = "fuzz-secret-token"
BLOB = b"fuzzed blob\n"
BLOB_DIGEST = hashlib.sha256(BLOB).hexdigest()

#: Path segments sent verbatim (already percent-encoded or hostile).
RAW_SEGMENTS = ["..", ".", "%2F", "..%2F..%2Fbob%2Fmodels%2Fplanted",
                "caf%C3%A9", "%FF%FE", "%00", "a%2541", "%2E%2E",
                "x" * 300]

#: Marks a removed field in the one-field sweep.
DELETE = object()

#: Query values: numbers, non-numbers, non-finite, and non-ASCII.
QUERY_VALUES = ["0", "1", "-1", "0.5", "1e400", "nan", "inf", "-inf",
                "abc", "", "café", "%2F", "..", "99999999999999999999"]

json_values = st.recursive(
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=False, allow_infinity=False)
    | st.text(max_size=8),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=8), children,
                                        max_size=3)),
    max_leaves=6,
)

#: Raw bodies that are not (standard) JSON objects.
RAW_BODIES = [b"", b"{", b"[]", b"null", b'"x"', b"\xff\xfe",
              b'{"a": NaN}', b'{"a": Infinity}', b'{"a": 1e400}',
              b"[" * 5000]


def small_model(name="fuzz"):
    """A one-fault model: few enough fields that mutations reach the
    rest of a body too."""
    return FaultModel(name=name, faults=gswfit_model().faults[:1])


class Wire:
    """A running server plus the ids of resources it really holds."""

    def __init__(self, tmp_path, auth):
        tenants = None
        if auth:
            tenants = TenantDirectory.from_dict({"tenants": {
                TENANT: {"token": TOKEN, "max_running": 2}}})
        self.auth = auth
        self.service = ProFIPyService(tmp_path / "ws", max_workers=2,
                                      tenants=tenants)
        self.server, _thread = start_server(self.service)
        owner = TENANT if auth else "default"
        job = self.service.runner.submit("fab", lambda job_dir: None,
                                         block=True, tenant=owner)
        self.service.save_model(small_model(),
                                tenant=TENANT if auth else None)
        self.service.put_blob(BLOB_DIGEST, BLOB)
        worker = self.service.register_worker(
            {"url": "http://127.0.0.1:9", "max_concurrent": 1})
        self.target = tmp_path / "no-such-target"
        shard = self.service.submit_shard(
            self.valid_body(ROUTE["submit_shard"], {}))
        self.known = {"job_id": [job.job_id], "name": ["fuzz", "gswfit"],
                      "digest": [BLOB_DIGEST],
                      "worker_id": [worker["worker_id"]],
                      "shard_id": [shard["shard_id"]]}

    def close(self):
        self.server.shutdown()
        self.service.close()

    def valid_body(self, route, params):
        """A body the row accepts (before mutation)."""
        if route.name == "save_model":
            return small_model(params["name"]).to_dict()
        if route.name == "submit_campaign":
            config = CampaignConfig(
                name="fuzz", target_dir=self.target,
                fault_model=small_model(),
                workload=WorkloadSpec(commands=["true"]),
                coverage=False, sample=1,
            )
            return {"config": campaign_config_to_dict(config), "rules": [],
                    "components": [], "resume_from": None, "block": False}
        if route.name == "submit_shard":
            return {"shard": 0, "planned": [],
                    "fault_model": small_model().to_dict(),
                    "workload": None, "trigger": True, "rounds": 2,
                    "campaign_seed": 0, "parallelism": 1,
                    "expected_seconds": {"WRR:app.py:0": 1.5},
                    "image": {"source_dir": str(self.target),
                              "staging_dir": str(self.target), "env": {}}}
        if route.name == "release_shard":
            return {"experiment_ids": ["exp-0001"]}
        if route.name == "missing_blobs":
            return {"digests": [BLOB_DIGEST]}
        if route.name == "register_worker":
            return {"url": "http://127.0.0.1:9", "max_concurrent": 1}
        if route.name == "worker_heartbeat":
            return {"load": {"running": 0, "queued": 0}}
        if route.name == "put_blob":
            return BLOB
        return None

    def send(self, method, path, body, token):
        host, port = self.server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        headers = {}
        if token is not None:
            headers["Authorization"] = f"Bearer {token}"
        try:
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        finally:
            connection.close()


@pytest.fixture(scope="module", params=["open", "auth"])
def wire(request, tmp_path_factory):
    # Config paths are server-side paths, and fuzzed relative ones
    # (``workspace: ""``) resolve against the working directory: keep
    # them in the scratch directory until every accepted job is done.
    root = tmp_path_factory.mktemp(f"wire-{request.param}")
    cwd = os.getcwd()
    os.chdir(root)
    stack = Wire(root, auth=request.param == "auth")
    try:
        yield stack
    finally:
        for job in stack.service.list_jobs():
            stack.service.runner.wait(job.job_id, timeout=60)
        stack.close()
        os.chdir(cwd)


def field_paths(value, prefix=()):
    """Every field of a JSON value, at any depth, as a key path."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from field_paths(child, prefix + (key,))


def mutate(data, body):
    """``body`` with one field, at any depth, replaced by arbitrary JSON
    or removed."""
    path = data.draw(st.sampled_from(list(field_paths(body))), label="field")
    parent = body
    for key in path[:-1]:
        parent = parent[key]
    if data.draw(st.booleans(), label="delete"):
        del parent[path[-1]]
    else:
        # Same-type garbage (a string for a string) half the time: that
        # is what gets past shape checks into the parsers behind them.
        same_type = {str: st.text(max_size=8), bool: st.booleans(),
                     int: st.integers(), float: st.floats()}.get(
            type(parent[path[-1]]), json_values)
        parent[path[-1]] = data.draw(same_type | json_values, label="value")
    return body


def draw_body(data, wire, route, params, fuzz):
    valid = wire.valid_body(route, params)
    if route.body == RAW_BODY:
        if not fuzz:
            return valid
        return data.draw(st.just(b"") | st.binary(max_size=64),
                         label="raw body")
    choice = "valid"
    if fuzz:
        choice = data.draw(st.sampled_from(
            ["mutated", "mutated", "mutated", "json", "raw"]),
            label="body kind")
    if choice == "raw":
        return data.draw(st.sampled_from(RAW_BODIES), label="raw body")
    if choice == "json":
        value = data.draw(json_values, label="json body")
    elif choice == "mutated":
        value = mutate(data, json.loads(json.dumps(valid)))
    else:
        value = valid
    return json.dumps(value).encode("utf-8")


def draw_request(data, wire, route):
    """One request to ``route`` with one aspect fuzzed — the body, the
    path parameters, the query, or the token — and the rest valid, so
    the fuzzed part is what the server has to get right."""
    aspects = ["body"] * (route.body != NO_BODY) \
        + ["path"] * bool(route.params) + ["query"] * bool(route.query) \
        + ["token"] * wire.auth
    aspect = data.draw(st.sampled_from(aspects or ["none"]), label="aspect")
    params, segments = {}, {}
    for name in route.params:
        segment = data.draw(st.sampled_from(
            [quote(value, safe="") for value in wire.known[name]]),
            label=name)
        if aspect == "path":
            segment = data.draw(
                st.sampled_from(RAW_SEGMENTS)
                | st.text(max_size=12).map(lambda text: quote(text,
                                                              safe="")),
                label=name)
        segments[name] = segment
        params[name] = unquote(segment)
    path = route.path.format(**segments)
    query = []
    for key, _cast in route.query:
        if aspect == "query" and data.draw(st.booleans(), label=key):
            value = data.draw(st.sampled_from(QUERY_VALUES)
                              | st.text(max_size=6), label=key)
            query.append(f"{key}={quote(value, safe='')}")
    if query:
        path += "?" + "&".join(query)
    body = None
    if route.body != NO_BODY:
        body = draw_body(data, wire, route, params, fuzz=aspect == "body")
    token = TOKEN if wire.auth else None
    if aspect == "token":
        token = data.draw(st.sampled_from([None, "wrong", ""]),
                          label="token")
    return path, body, token


def check_answer(route, status, raw, request):
    """The answer is the row's success status or a documented,
    non-internal error whose code matches the status."""
    if status < 400:
        assert status == route.status, (request, status)
        return
    assert status in ERROR_STATUS.values(), (request, status, raw)
    error = json.loads(raw)["error"]
    assert error["code"] in ERROR_STATUS, (request, error)
    assert error["code"] != "internal", (request, error)
    assert ERROR_STATUS[error["code"]] == status, (request, error)


@pytest.mark.parametrize("route", ROUTES, ids=lambda route: route.name)
@settings(max_examples=50, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.data_too_large])
@given(data=st.data())
def test_every_answer_is_documented(wire, route, data):
    path, body, token = draw_request(data, wire, route)
    status, raw = wire.send(route.method, path, body, token)
    check_answer(route, status, raw, (route.method, path, body, token))


#: What the sweep puts in place of each field (besides removing it).
REPLACEMENTS = [None, True, -1, 10 ** 30, 0.5, "", "not a value \u00e9",
                [1], {"x": 1}]


@pytest.mark.parametrize(
    "route", [route for route in ROUTES if route.body in (JSON_BODY,
                                                          OPTIONAL_JSON)],
    ids=lambda route: route.name)
def test_every_one_field_mutation_is_documented(wire, route):
    """Exhaustively: each field of the row's valid body, at any depth,
    removed or replaced by each of ``REPLACEMENTS``."""
    params = {name: wire.known[name][0] for name in route.params}
    path = route.url(*params.values())
    valid = wire.valid_body(route, params)
    token = TOKEN if wire.auth else None
    for field in field_paths(valid):
        for replacement in [DELETE] + REPLACEMENTS:
            body = json.loads(json.dumps(valid))
            parent = body
            for key in field[:-1]:
                parent = parent[key]
            if replacement is DELETE:
                del parent[field[-1]]
            else:
                parent[field[-1]] = replacement
            status, raw = wire.send(route.method, path,
                                    json.dumps(body).encode(), token)
            check_answer(route, status, raw, (path, field, replacement))
