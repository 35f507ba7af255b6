"""A stand-in HTTP server that does none of the program's work.

``serve-mixed`` drives this with the same client, connections and request
bodies as the real daemon, right before the daemon starts and right after
it stops, to measure how fast the host runs a request round trip at that
moment (serve_mixed.py divides by it).  It is shaped like the daemon --
asyncio HTTP/1.1 with keep-alive, one dispatcher thread fed by a queue --
but its dispatcher only decodes the JSON body and encodes a reply of the
same size.  It imports nothing of the program; run it isolated:

    python3 -I perfbench/nullserve.py

It prints ``listening on http://HOST:PORT`` and serves until SIGTERM.
"""

from __future__ import annotations

import asyncio
import json
import queue
import signal
import threading


def _dispatcher(jobs: queue.Queue) -> None:
    while True:
        body, done = jobs.get()
        reply = json.dumps({"exit_code": 0, "echo": json.loads(body)})
        done(reply.encode())


async def _connection(reader, writer, jobs: queue.Queue) -> None:
    loop = asyncio.get_running_loop()
    try:
        while True:
            head = await reader.readuntil(b"\r\n\r\n")
            length = 0
            for line in head.decode("latin-1").split("\r\n")[1:]:
                name, _, value = line.partition(":")
                if name.strip().lower() == "content-length":
                    length = int(value)
            body = await reader.readexactly(length)
            future = loop.create_future()
            jobs.put((body or b"{}", lambda reply: loop.call_soon_threadsafe(
                future.set_result, reply)))
            reply = await future
            writer.write(b"HTTP/1.1 200 OK\r\nContent-Type: application/json"
                         b"\r\nContent-Length: %d\r\nConnection: keep-alive"
                         b"\r\n\r\n%s" % (len(reply), reply))
            await writer.drain()
    except (asyncio.IncompleteReadError, ConnectionError):
        pass
    finally:
        writer.close()


async def main() -> None:
    jobs: queue.Queue = queue.Queue()
    threading.Thread(target=_dispatcher, args=(jobs,), daemon=True).start()
    server = await asyncio.start_server(
        lambda r, w: _connection(r, w, jobs), "127.0.0.1", 0)
    host, port = server.sockets[0].getsockname()[:2]
    print(f"listening on http://{host}:{port}", flush=True)
    stop = asyncio.Event()
    asyncio.get_running_loop().add_signal_handler(signal.SIGTERM, stop.set)
    async with server:
        await stop.wait()


if __name__ == "__main__":
    asyncio.run(main())
