"""The HTTP transport: one write per response on a TCP_NODELAY socket,
keep-alive framing over one connection, and 4xx answers (never a
dropped connection) for POSTs whose framing is unusable."""

import http.client
import io
import json
import re
import socket
import threading
import types

import pytest

from repro.service import create_server
from repro.service.http import MAX_BODY_BYTES, ApiHandler, NvdService

VECTOR = "AV:N/AC:L/Au:N/C:P/I:P/A:P"
PREDICT = "/v1/severity/predict"


class RecordingSocket:
    """An accepted connection that replays one request and records
    every socket option and every send."""

    def __init__(self, request: bytes) -> None:
        self._request = request
        self.writes: list[bytes] = []
        self.options: dict[tuple[int, int], object] = {}

    def setsockopt(self, level: int, option: int, value: object) -> None:
        self.options[(level, option)] = value

    def makefile(self, mode: str, buffering: int = -1) -> io.BytesIO:
        assert "r" in mode, "responses must go through sendall"
        return io.BytesIO(self._request)

    def sendall(self, data: bytes) -> None:
        self.writes.append(bytes(data))


@pytest.fixture(scope="module")
def service(artifact_root):
    service = NvdService(artifact_root, reload_interval=60.0)
    yield service
    service.close()


@pytest.fixture(scope="module")
def server(artifact_root):
    server = create_server(artifact_root, port=0, reload_interval=60.0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=5)


def exchange(service: NvdService, request: bytes) -> RecordingSocket:
    """Run one connection's worth of requests through an ApiHandler."""
    sock = RecordingSocket(request)
    ApiHandler(sock, ("127.0.0.1", 0), types.SimpleNamespace(service=service))
    return sock


def split_response(data: bytes) -> tuple[str, dict[str, str], bytes]:
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        key, _, value = line.partition(":")
        headers[key.strip().lower()] = value.strip()
    return status_line, headers, body


def rejected_total(service: NvdService, reason: str) -> float:
    text = service.render_metrics_text()
    match = re.search(
        rf'^repro_http_rejected_total\{{reason="{reason}"\}} (\S+)$', text, re.M
    )
    assert match, f"no rejected series for {reason}"
    return float(match.group(1))


class TestOneWritePerResponse:
    @pytest.mark.parametrize(
        ("request_bytes", "status"),
        [
            (b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n", 200),
            (b"GET /v1/no/such/route HTTP/1.1\r\nHost: t\r\n\r\n", 404),
            (
                (
                    f"POST {PREDICT} HTTP/1.1\r\nHost: t\r\n"
                    f"Content-Length: {len(json.dumps({'cvss_v2': VECTOR}))}\r\n\r\n"
                    + json.dumps({"cvss_v2": VECTOR})
                ).encode(),
                200,
            ),
        ],
        ids=["200", "404", "predict"],
    )
    def test_response_leaves_in_exactly_one_write(
        self, service, request_bytes, status
    ):
        sock = exchange(service, request_bytes)
        assert len(sock.writes) == 1
        status_line, headers, body = split_response(sock.writes[0])
        assert status_line.startswith(f"HTTP/1.1 {status} ")
        assert int(headers["content-length"]) == len(body)
        assert headers["content-type"] == "application/json"
        json.loads(body)

    def test_nagle_is_disabled_on_accepted_sockets(self, service):
        sock = exchange(service, b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
        assert sock.options.get((socket.IPPROTO_TCP, socket.TCP_NODELAY))

    def test_pipelined_requests_each_get_one_write(self, service):
        request = b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n" * 3
        sock = exchange(service, request)
        assert len(sock.writes) == 3
        assert all(write.startswith(b"HTTP/1.1 200 ") for write in sock.writes)


class TestKeepAlive:
    def test_twenty_mixed_requests_over_one_connection(self, server):
        service = server.service
        entries = service.state.snapshot.entries
        cve_id = entries[0].cve_id
        vendor = next(entry.vendors[0] for entry in entries if entry.vendors)
        good = json.dumps({"cvss_v2": VECTOR}).encode()
        mix = [
            ("GET", "/healthz", None, 200),
            ("GET", "/v1/stats", None, 200),
            ("GET", f"/v1/cve/{cve_id}", None, 200),
            ("POST", PREDICT, good, 200),
            ("GET", f"/v1/vendor/{vendor}", None, 200),
            ("GET", "/v1/cve/CVE-1999-99999", None, 404),
            ("POST", PREDICT, b"{truncated", 400),
            ("GET", "/v1/no/such/route", None, 404),
            ("POST", PREDICT, b"", 400),
            ("GET", f"/v1/vendor/{vendor}?limit=1", None, 200),
        ]
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            first_socket = None
            for method, path, body, status in mix * 2:
                conn.request(method, path, body=body)
                response = conn.getresponse()
                data = response.read()
                if first_socket is None:
                    first_socket = conn.sock
                assert conn.sock is first_socket, "connection was not kept alive"
                assert response.status == status, (method, path)
                assert int(response.getheader("Content-Length")) == len(data)
                assert response.getheader("Connection") is None
                expected = service.handle(method, path, body)
                assert data == expected.body, (method, path)
        finally:
            conn.close()


class TestRequestFraming:
    SHAPES = [
        ("missing", None, 400, "length_missing"),
        ("non-numeric", "abc", 400, "length_invalid"),
        ("negative", "-5", 400, "length_invalid"),
        ("underscore", "1_0", 400, "length_invalid"),
        ("signed", "+5", 400, "length_invalid"),
        ("empty", "", 400, "length_invalid"),
        ("huge", "99999999999", 413, "body_too_large"),
        ("over-cap", str(MAX_BODY_BYTES + 1), 413, "body_too_large"),
    ]

    @pytest.mark.parametrize(
        ("length", "status", "reason"),
        [shape[1:] for shape in SHAPES],
        ids=[shape[0] for shape in SHAPES],
    )
    def test_bad_content_length_gets_4xx_and_a_counter(
        self, server, capfd, length, status, reason
    ):
        before = rejected_total(server.service, reason)
        header = "" if length is None else f"Content-Length: {length}\r\n"
        request = f"POST {PREDICT} HTTP/1.1\r\nHost: t\r\n{header}\r\n".encode()
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(request)
            response = http.client.HTTPResponse(sock)
            response.begin()
            body = response.read()
            assert response.status == status
            assert response.getheader("Connection") == "close"
            assert int(response.getheader("Content-Length")) == len(body)
            assert "error" in json.loads(body)
            assert sock.recv(1) == b""  # closed after the answer, not before
        assert rejected_total(server.service, reason) == before + 1
        assert "Traceback" not in capfd.readouterr().err

    def test_expect_100_continue_is_sent_before_the_body_is_read(self, server):
        body = json.dumps({"cvss_v2": VECTOR}).encode()
        head = (
            f"POST {PREDICT} HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n"
            f"Content-Length: {len(body)}\r\n\r\n"
        ).encode()
        with socket.create_connection(server.server_address[:2], timeout=10) as sock:
            sock.sendall(head)
            interim = b""
            while not interim.endswith(b"\r\n\r\n"):
                chunk = sock.recv(1)
                assert chunk, "connection closed before 100 Continue"
                interim += chunk
            assert interim.startswith(b"HTTP/1.1 100 ")
            sock.sendall(body)
            response = http.client.HTTPResponse(sock)
            response.begin()
            assert response.status == 200
            assert "severity" in json.loads(response.read())

    def test_body_at_the_cap_is_read_and_routed(self, server):
        body = b" " * MAX_BODY_BYTES
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.request("POST", PREDICT, body=body)
            response = conn.getresponse()
            payload = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert "JSON" in payload["error"]

    def test_server_keeps_serving_after_rejections(self, server):
        host, port = server.server_address[:2]
        conn = http.client.HTTPConnection(host, port, timeout=10)
        try:
            conn.putrequest("POST", PREDICT)
            conn.putheader("Content-Length", "abc")
            conn.endheaders()
            response = conn.getresponse()
            response.read()
            assert response.status == 400
            # http.client reopens the connection the server closed.
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["status"] == "ok"
        finally:
            conn.close()
