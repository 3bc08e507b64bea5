"""Spawn and reap benchmark children from a process that stays small.

    python3 -S spawner.py FD

Linux charges a child spawned with vfork (as subprocess does) with its
parent's peak RSS, so a child spawned by the harness would report at least
the harness's own peak. This server keeps a small, constant footprint.

Protocol on the SOCK_SEQPACKET Unix socket FD, one message per child. The
request is a JSON argv list, sent with the child's stdout and stderr
descriptors and optionally one more, whose number replaces "{fd}" in argv.
The reply is a JSON object with the exit code, CPU seconds and ru_maxrss in
KiB from os.wait4, or {"error": ...} if the child could not be started.
The server exits when the socket is closed.
"""

import json
import os
import socket
import subprocess
import sys


def serve(sock: socket.socket) -> None:
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 20, 3)
        if not msg:
            return
        extra = fds[2:]
        argv = [a.replace("{fd}", str(extra[0])) if extra else a for a in json.loads(msg)]
        try:
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=fds[0], stderr=fds[1], pass_fds=extra)
        except OSError as exc:
            sock.send(json.dumps({"error": repr(exc)}).encode())
            continue
        finally:
            for fd in fds:
                os.close(fd)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        sock.send(json.dumps({
            "code": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kib": usage.ru_maxrss,
        }).encode())


if __name__ == "__main__":
    with socket.socket(fileno=int(sys.argv[1])) as conn:
        serve(conn)
