"""Run CLI queries one at a time and report each process's own peak memory.

    echo '{"argv": ["/usr/bin/python3", "-m", "knotct.cli"], "queries": [["invariants", "P(3,5,-2)"]]}' \\
        | PYTHONPATH=src python3 perfbench/cli_launcher.py

Reads {"argv": [...], "queries": [[cmd, spec], ...]} from stdin (argv[0] is
a path: it is not looked up on PATH), runs `argv + [cmd, spec, "--json"]`
for each query in turn and prints one JSON object: "wall_s", the time of
the whole loop without the speed probes, "probes", the probe times
(speed.py; a burst of PROBES_PER_QUERY before each query and after the
last), "probe_after", the query each probe followed (-1 for none), and
"queries", per query [exit code, stdout, stderr, seconds from spawn to
reaped exit, peak RSS in MB].

Linux carries a process's resident high-water mark across fork, vfork and
exec into the child's ru_maxrss, so a child's figure is never below that of
the process that started it.  This launcher imports nothing from knotct and
holds no spec pool, so its own mark stays below a CLI process's and the
figure `os.wait4` returns for each query is that query's own.  It pins
itself, and so its queries, to one CPU: the two vCPUs of a shared host
slow down independently, and a probe only tells the speed of its own CPU.
"""

import json
import os
import sys
import time

import speed

PROBES_PER_QUERY = 8


def read_all(fd):
    os.lseek(fd, 0, os.SEEK_SET)
    chunks = []
    while chunk := os.read(fd, 1 << 16):
        chunks.append(chunk)
    os.close(fd)
    return b"".join(chunks).decode(errors="replace")


def run(argv):
    out_fd, err_fd = os.memfd_create("stdout"), os.memfd_create("stderr")
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_DUP2, out_fd, 1),
        (os.POSIX_SPAWN_DUP2, err_fd, 2),
    ]
    t = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - t
    return [os.waitstatus_to_exitcode(status), read_all(out_fd), read_all(err_fd),
            seconds, usage.ru_maxrss / 1024]


def main():
    job = json.load(sys.stdin)
    # the queries inherit this CPU, so the probes run where the queries do
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probes, after, results = [], [], []
    start = time.perf_counter()
    for query in job["queries"] + [None]:
        probes.extend(speed.probe() for _ in range(PROBES_PER_QUERY))
        after.extend([len(results) - 1] * PROBES_PER_QUERY)
        if query is not None:
            results.append(run(job["argv"] + [*query, "--json"]))
    wall = time.perf_counter() - start - sum(probes)
    print(json.dumps({"wall_s": wall, "probes": probes, "probe_after": after,
                      "queries": results}))


if __name__ == "__main__":
    main()
