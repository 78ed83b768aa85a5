"""Spawn and supervise a local live cluster as real OS processes.

:class:`LocalCluster` launches one ``repro serve`` subprocess per replica on
localhost, waits for every listen socket to accept, and supervises the
fleet.  Scale-sensitive paths are engineered for ~100-replica runs:

* listen ports are reserved *in one batch* (all probe sockets held open
  until just before each child binds), not picked one retry-looped probe at
  a time — the one-port-at-a-time TOCTOU window thrashes at high counts;
* readiness is probed in parallel across replicas instead of serially;
* exits are observed by per-process watcher threads feeding one event, so a
  supervisor blocks in :meth:`wait_for_exit` instead of polling every
  process on a timer;
* ``transport="uds"`` puts every endpoint on a Unix domain socket under a
  private temp directory, skipping the TCP/IP stack for co-located replicas.

Each child gets its whole :class:`ReplicaRuntimeConfig` as one JSON
argument (``repro serve --config``), so a child cannot build a different
core or genesis state than the supervisor describes.  Shutdown is
graceful-first (a control-plane shutdown frame), then SIGTERM, then SIGKILL.
With explicit hosts in ``peers``, the same ``repro serve --config``
documents deploy the cluster across machines; this class only automates
the localhost case.
"""

from __future__ import annotations

import json
import os
import shutil
import socket
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, as_completed
from dataclasses import asdict, dataclass, field
from pathlib import Path

from repro.cluster.faults import FaultPlan
from repro.errors import ExperimentError
from repro.runtime.chaos import (
    abstaining_replicas,
    send_delay_for,
    validate_fault_plan,
    wan_to_text,
)
from repro.runtime.config import (
    ReplicaRuntimeConfig,
    ReplicaSettings,
    format_endpoint,
    is_uds_endpoint,
    uds_path,
)


def free_port(host: str = "127.0.0.1") -> int:
    """Ask the OS for an ephemeral port that is currently free."""
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as probe:
        probe.bind((host, 0))
        return probe.getsockname()[1]


def reserve_free_ports(count: int, host: str = "127.0.0.1") -> list[socket.socket]:
    """Reserve ``count`` distinct free ports, returning the bound sockets.

    All sockets are held open simultaneously, so the OS cannot hand the same
    port out twice; the caller closes each socket immediately before the
    process that will reuse its port binds, shrinking the reuse race to
    microseconds (vs. the whole startup window when ports are probed one at
    a time).  ``SO_REUSEADDR`` lets the successor bind without waiting out
    the probe socket's teardown.
    """
    sockets: list[socket.socket] = []
    try:
        for _ in range(count):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind((host, 0))
            sockets.append(probe)
    except OSError:
        for probe in sockets:
            probe.close()
        raise
    return sockets


@dataclass
class ClusterSpec(ReplicaSettings):
    """Shape of a locally spawned cluster.

    The knobs every replica shares come from :class:`ReplicaSettings`; the
    fields below describe the fleet and the supervisor.
    """

    num_replicas: int = 4
    host: str = "127.0.0.1"
    base_port: int | None = None  # None: pick free ports automatically
    #: Degradations applied to the cluster: stragglers and Byzantine
    #: abstention configure the replica processes at spawn; crashes and
    #: restarts are executed by a :class:`~repro.runtime.chaos.ChaosController`.
    faults: FaultPlan = field(default_factory=FaultPlan.none)
    #: ``"tcp"`` (default) or ``"uds"`` — Unix domain sockets under a
    #: private temp directory, for co-located replicas.
    transport: str = "tcp"
    #: Directory run artifacts live under (``replica-<i>/trace.jsonl``,
    #: ``replica-<i>/metrics.jsonl``, ``replica-<i>/stderr.log``).  ``None``
    #: auto-creates a ``repro-run-*`` temp directory when tracing is
    #: requested; artifacts under a run directory survive :meth:`stop` so
    #: ``repro trace`` can stitch them afterwards.
    run_dir: str | None = None
    #: Give every replica a WAL + snapshots under its run directory
    #: (``replica-<i>/wal.jsonl``, ``replica-<i>/snapshot-*.json``) so a
    #: killed replica can be restarted with full crash recovery (snapshot +
    #: WAL replay + peer state transfer).  Auto-creates a temp run dir when
    #: none was configured.  Durability runs want a small ``epoch_length``
    #: so snapshots actually get cut at test/chaos time scales.
    durability: bool = False
    #: Fraction of transactions traced (0.0 = tracing off); the same
    #: deterministic tx-id hash decides sampling in every process.
    trace_sample: float = 0.0

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.num_replicas < 4:
            raise ExperimentError("live clusters need at least 4 replicas")
        if self.transport not in ("tcp", "uds"):
            raise ExperimentError(f"unknown cluster transport {self.transport!r}")
        if not 0.0 <= self.trace_sample <= 1.0:
            raise ExperimentError("trace_sample must be within [0, 1]")
        validate_fault_plan(self.faults, self.num_replicas)

    def endpoints(self) -> tuple[tuple[str, int], ...]:
        """TCP endpoints from ``base_port`` (or one-shot free-port picks).

        :class:`LocalCluster` does not call this on the automatic-port path —
        it batch-reserves instead (see :func:`reserve_free_ports`).
        """
        if self.base_port is not None:
            return tuple(
                (self.host, self.base_port + index)
                for index in range(self.num_replicas)
            )
        return tuple((self.host, free_port(self.host)) for _ in range(self.num_replicas))


class LocalCluster:
    """A supervised fleet of ``repro serve`` subprocesses on localhost."""

    def __init__(self, spec: ClusterSpec | None = None) -> None:
        self.spec = spec or ClusterSpec()
        self.processes: list[subprocess.Popen] = []
        self._stderr_logs: list[Path] = []
        self._retired_logs: list[Path] = []
        self._socket_dir: Path | None = None
        self._reserved: list[socket.socket | None] = []
        #: Exit bookkeeping fed by one watcher thread per child process.
        self._exit_lock = threading.Lock()
        self._exits: dict[int, subprocess.Popen] = {}
        self._exit_event = threading.Event()
        self._watchers: list[threading.Thread] = []
        #: Run-artifact directory: explicit, or a temp dir when tracing was
        #: requested without one.  Artifacts under it are kept on stop().
        self.run_dir: Path | None = None
        if self.spec.run_dir is not None:
            self.run_dir = Path(self.spec.run_dir)
        elif self.spec.durability or (
            self.spec.trace_sample > 0 and self.spec.obs_enabled
        ):
            self.run_dir = Path(tempfile.mkdtemp(prefix="repro-run-"))
        if self.run_dir is not None:
            self.run_dir.mkdir(parents=True, exist_ok=True)
        self.endpoints: tuple[tuple[str, int], ...] = self._pick_endpoints()

    def replica_dir(self, replica_id: int) -> Path:
        """Per-replica artifact directory under the run dir (created lazily)."""
        assert self.run_dir is not None, "cluster has no run directory"
        directory = self.run_dir / f"replica-{replica_id}"
        directory.mkdir(parents=True, exist_ok=True)
        return directory

    # -- endpoint selection ---------------------------------------------------

    def _pick_endpoints(self) -> tuple[tuple[str, int], ...]:
        spec = self.spec
        if spec.transport == "uds":
            if self._socket_dir is None:
                self._socket_dir = Path(tempfile.mkdtemp(prefix="repro-uds-"))
            return tuple(
                (f"unix:{self._socket_dir / f'replica-{index}.sock'}", 0)
                for index in range(spec.num_replicas)
            )
        if spec.base_port is not None:
            return spec.endpoints()
        self._release_reserved()
        self._reserved = list(reserve_free_ports(spec.num_replicas, spec.host))
        return tuple(
            (spec.host, probe.getsockname()[1]) for probe in self._reserved
        )

    def _release_reserved(self, index: int | None = None) -> None:
        if index is not None:
            if index < len(self._reserved) and self._reserved[index] is not None:
                self._reserved[index].close()
                self._reserved[index] = None
            return
        for probe in self._reserved:
            if probe is not None:
                probe.close()
        self._reserved = []

    # -- configuration ------------------------------------------------------

    def runtime_config(
        self, replica_id: int, *, recovery: str = "snapshot"
    ) -> ReplicaRuntimeConfig:
        """The :class:`ReplicaRuntimeConfig` replica ``replica_id`` runs with."""
        trace_file = None
        metrics_file = None
        if self.run_dir is not None and self.spec.obs_enabled:
            replica_dir = self.replica_dir(replica_id)
            if self.spec.trace_sample > 0:
                trace_file = str(replica_dir / "trace.jsonl")
            metrics_file = str(replica_dir / "metrics.jsonl")
        run_dir = None
        if self.spec.durability:
            run_dir = str(self.replica_dir(replica_id))
        return ReplicaRuntimeConfig(
            **self.spec.replica_settings(),
            replica_id=replica_id,
            peers=self.endpoints,
            send_delay=send_delay_for(self.spec.faults, replica_id),
            wan=wan_to_text(self.spec.faults.wan),
            byzantine_abstain=replica_id
            in abstaining_replicas(self.spec.faults, self.spec.num_replicas),
            trace_file=trace_file,
            trace_sample=self.spec.trace_sample,
            metrics_file=metrics_file,
            run_dir=run_dir,
            recovery=recovery,
        )

    def serve_command(
        self, replica_id: int, *, recovery: str = "snapshot"
    ) -> list[str]:
        """The ``repro serve`` argv for one replica: its whole config as JSON."""
        config = asdict(self.runtime_config(replica_id, recovery=recovery))
        return [
            sys.executable,
            "-m",
            "repro.cli",
            "serve",
            "--config",
            json.dumps(config, separators=(",", ":")),
        ]

    # -- lifecycle -----------------------------------------------------------

    def start(self, *, ready_timeout: float = 20.0, attempts: int = 3) -> None:
        """Spawn every replica and wait until all listen sockets accept.

        Even batch-reserved ports leave a microscopic reuse window between
        releasing a reservation and the child binding, so startup failures
        are still retried with freshly reserved ports up to ``attempts``
        times.
        """
        if self.processes:
            raise ExperimentError("cluster is already running")
        if self.spec.transport == "uds" and self._socket_dir is None:
            # A previous stop() removed the socket directory.
            self.endpoints = self._pick_endpoints()
        last_error: Exception | None = None
        for attempt in range(max(1, attempts)):
            if attempt > 0:
                self.endpoints = self._pick_endpoints()
            try:
                self._spawn()
                self._wait_ready(ready_timeout)
                return
            except ExperimentError as error:
                last_error = error
                self.stop()
        raise ExperimentError(
            f"cluster failed to start after {attempts} attempts: {last_error}"
        )

    def _spawn(self) -> None:
        for replica_id in range(self.spec.num_replicas):
            process, log = self._spawn_replica(replica_id)
            self.processes.append(process)
            self._stderr_logs.append(log)

    def _spawn_replica(
        self, replica_id: int, *, recovery: str = "snapshot"
    ) -> tuple[subprocess.Popen, Path]:
        # Children must import the same ``repro`` this supervisor runs,
        # whether it came from an installed package or a PYTHONPATH checkout.
        import repro

        env = dict(os.environ)
        package_root = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        # stderr goes to a file, not a pipe: nobody reads a pipe during
        # the run, so a chatty replica would fill it and block inside a
        # logging write.  The file is read back for diagnostics.  With a run
        # directory it lives there (append mode, so a restart keeps the
        # pre-crash tail) and survives stop().
        if self.run_dir is not None:
            log = self.replica_dir(replica_id) / "stderr.log"
        else:
            log = Path(tempfile.mkstemp(prefix=f"repro-replica-{replica_id}-")[1])
        # Release this replica's port reservation at the last moment.
        self._release_reserved(replica_id)
        with log.open("ab") as stderr_sink:
            process = subprocess.Popen(
                self.serve_command(replica_id, recovery=recovery),
                stdout=subprocess.DEVNULL,
                stderr=stderr_sink,
                env=env,
            )
        self._watch(replica_id, process)
        return process, log

    def _watch(self, replica_id: int, process: subprocess.Popen) -> None:
        """Start a thread that records the process's exit and sets the event."""

        def wait_for_process() -> None:
            try:
                process.wait()
            except Exception:  # pragma: no cover - teardown races
                return
            with self._exit_lock:
                self._exits[replica_id] = process
            self._exit_event.set()

        watcher = threading.Thread(
            target=wait_for_process,
            name=f"repro-exit-watch-{replica_id}",
            daemon=True,
        )
        watcher.start()
        self._watchers.append(watcher)

    def _wait_ready(self, timeout: float) -> None:
        """Probe every replica's listen endpoint until all accept (parallel)."""
        deadline = time.monotonic() + timeout
        abort = threading.Event()
        max_workers = min(32, max(1, self.spec.num_replicas))
        with ThreadPoolExecutor(max_workers=max_workers) as pool:
            futures = [
                pool.submit(self._wait_endpoint, index, deadline, abort)
                for index in range(len(self.endpoints))
            ]
            try:
                for future in as_completed(futures):
                    future.result()
            finally:
                abort.set()

    def _wait_endpoint(
        self, index: int, deadline: float, abort: threading.Event
    ) -> None:
        endpoint = self.endpoints[index]
        while not abort.is_set():
            process = self.processes[index]
            if process.poll() is not None:
                raise ExperimentError(
                    f"replica {index} exited during startup "
                    f"(code {process.returncode}): "
                    f"{self.replica_stderr(index).strip()[-2000:]}"
                )
            try:
                if is_uds_endpoint(endpoint):
                    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as probe:
                        probe.settimeout(0.25)
                        probe.connect(uds_path(endpoint))
                else:
                    with socket.create_connection(endpoint, timeout=0.25):
                        pass
                return
            except OSError:
                if time.monotonic() > deadline:
                    raise ExperimentError(
                        f"replica {index} did not open "
                        f"{format_endpoint(endpoint)} within the ready timeout"
                    ) from None
                time.sleep(0.05)

    def check(self) -> list[int]:
        """Ids of replicas whose processes have exited (healthy: empty)."""
        with self._exit_lock:
            recorded = {
                replica_id
                for replica_id, process in self._exits.items()
                if replica_id < len(self.processes)
                and self.processes[replica_id] is process
            }
        # Belt and braces: a watcher that has not run yet must not hide a
        # death from a caller who asks right now.
        recorded.update(
            index
            for index, process in enumerate(self.processes)
            if process.poll() is not None
        )
        return sorted(recorded)

    def wait_for_exit(self, timeout: float) -> list[int]:
        """Block until some replica exits (or ``timeout`` passes).

        Event-driven supervision: watcher threads flag exits the moment
        ``waitpid`` returns, so a supervisor sleeps here instead of polling
        every process on a timer.  Returns :meth:`check`.
        """
        self._exit_event.wait(timeout)
        self._exit_event.clear()
        return self.check()

    # -- fault injection -----------------------------------------------------

    def send_control(self, replica_id: int, message) -> None:
        """Fire one control-plane frame at a replica over a throwaway socket.

        Used by the chaos controller to push partition link updates
        (:class:`~repro.runtime.control.LinkUpdate`).  Synchronous and
        fire-and-forget: no hello and no reply — link updates are absolute
        sets, so a lost one is corrected by the next push.
        Raises ``OSError`` when the replica's socket refuses (e.g. it is
        down); callers decide whether that matters.
        """
        from repro.runtime.codec import encode_envelope
        from repro.runtime.framing import encode_frame

        if not 0 <= replica_id < len(self.endpoints):
            raise ExperimentError(f"no replica {replica_id} to control")
        endpoint = self.endpoints[replica_id]
        frame = encode_frame(encode_envelope(self.spec.num_replicas, message))
        if is_uds_endpoint(endpoint):
            with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
                sock.settimeout(2.0)
                sock.connect(uds_path(endpoint))
                sock.sendall(frame)
        else:
            with socket.create_connection(endpoint, timeout=2.0) as sock:
                sock.sendall(frame)

    def kill_replica(self, replica_id: int) -> None:
        """Crash one replica process (SIGKILL: a crash, not a clean exit).

        Used by :class:`~repro.runtime.chaos.ChaosController` to execute a
        :class:`FaultPlan` crash.  The process slot is kept so the replica
        can later be restarted on the same endpoint.
        """
        if not 0 <= replica_id < len(self.processes):
            raise ExperimentError(f"no replica {replica_id} to kill")
        process = self.processes[replica_id]
        if process.poll() is None:
            process.kill()
            process.wait(timeout=10.0)

    def restart_replica(
        self,
        replica_id: int,
        *,
        recovery: str = "snapshot",
        ready_timeout: float = 20.0,
    ) -> None:
        """Respawn a previously killed replica on its original endpoint.

        Blocks until the restarted process accepts on its listen socket
        (bounded by ``ready_timeout``), mirroring :meth:`start`'s contract —
        callers can dial it the moment this returns.  The socket opens
        *before* WAL replay and state transfer finish, so acceptance does
        not mean the replica has caught up yet.

        Recovery modes:

        * ``"snapshot"`` (default) — with durability on, the restarted
          process recovers from its newest valid snapshot plus the WAL
          suffix, pulls whatever it still misses from peers, and rejoins as
          a *full* participant (it leads its instances and votes).
        * ``"genesis"`` — durable state is wiped first; the replica rebuilds
          from the genesis state and catches up through state transfer
          alone.

        Without durability (``ClusterSpec.durability=False``) there is no
        WAL, no snapshots and no state transfer: either mode rebuilds from
        genesis and rejoins passively — it serves its listen socket and
        answers the control plane but cannot catch up with slots delivered
        while it was down, so quorums must come from the replicas that
        stayed up.
        """
        if recovery not in ("snapshot", "genesis"):
            raise ExperimentError(f"unknown recovery mode {recovery!r}")
        if not 0 <= replica_id < len(self.processes):
            raise ExperimentError(f"no replica {replica_id} to restart")
        if self.processes[replica_id].poll() is None:
            raise ExperimentError(f"replica {replica_id} is still running")
        process, log = self._spawn_replica(replica_id, recovery=recovery)
        with self._exit_lock:
            self._exits.pop(replica_id, None)
        self.processes[replica_id] = process
        # Retire (but keep for cleanup) the pre-crash log; diagnostics now
        # read the restarted process's log at the replica's index.
        self._retired_logs.append(self._stderr_logs[replica_id])
        self._stderr_logs[replica_id] = log
        self._wait_endpoint(
            replica_id, time.monotonic() + ready_timeout, threading.Event()
        )

    def replica_stderr(self, replica_id: int) -> str:
        """Contents of one replica's stderr log (diagnostics)."""
        try:
            return self._stderr_logs[replica_id].read_text(errors="replace")
        except (IndexError, OSError):
            return ""

    def stop(self, *, grace: float = 5.0) -> None:
        """Terminate every replica (SIGTERM, then SIGKILL after ``grace``)."""
        for process in self.processes:
            if process.poll() is None:
                process.terminate()
        deadline = time.monotonic() + grace
        for process in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                process.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=5.0)
        self.processes.clear()
        for watcher in self._watchers:
            watcher.join(timeout=1.0)
        self._watchers.clear()
        with self._exit_lock:
            self._exits.clear()
        self._exit_event.clear()
        self._release_reserved()
        # Run-directory artifacts (traces, metrics, stderr) outlive the
        # cluster; only the anonymous temp logs are cleaned up.
        if self.run_dir is None:
            for log in self._stderr_logs + self._retired_logs:
                try:
                    log.unlink()
                except OSError:
                    pass
        self._stderr_logs.clear()
        self._retired_logs.clear()
        if self._socket_dir is not None:
            shutil.rmtree(self._socket_dir, ignore_errors=True)
            self._socket_dir = None

    def __enter__(self) -> "LocalCluster":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()
