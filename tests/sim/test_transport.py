"""MemoryTransport semantics: the failure surface must look exactly
like real sockets (refused connections, EOF on close) minus the kernel
timing noise."""

import asyncio

import pytest

from repro.sim import MemoryTransport


def test_serve_connect_round_trip():
    async def run():
        transport = MemoryTransport()
        served = []

        async def echo(reader, writer):
            data = await reader.readexactly(5)
            served.append(data)
            writer.write(data[::-1])
            await writer.drain()
            writer.close()

        listener = await transport.serve(echo, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        writer.write(b"hello")
        await writer.drain()
        back = await reader.readexactly(5)
        writer.close()
        listener.close()
        await listener.wait_closed()
        return served, back

    served, back = asyncio.run(run())
    assert served == [b"hello"]
    assert back == b"olleh"


def test_connect_to_unbound_address_refused():
    async def run():
        transport = MemoryTransport()
        with pytest.raises(ConnectionRefusedError):
            await transport.connect(("127.0.0.1", 50000))

    asyncio.run(run())


def test_closed_listener_refuses_new_connections():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        listener = await transport.serve(handler, "127.0.0.1", 0)
        addr = listener.address
        await transport.connect(addr)  # reachable while bound
        listener.close()
        with pytest.raises(ConnectionRefusedError):
            await transport.connect(addr)

    asyncio.run(run())


def test_peer_close_feeds_eof():
    """A mid-frame close surfaces as IncompleteReadError, the same
    exception a dropped TCP connection produces."""

    async def run():
        transport = MemoryTransport()

        async def rude(reader, writer):
            writer.write(b"par")  # half a frame...
            writer.close()  # ...then hang up

        listener = await transport.serve(rude, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        with pytest.raises(asyncio.IncompleteReadError):
            await reader.readexactly(6)

    asyncio.run(run())


def test_close_ends_both_directions():
    """Closing either end feeds EOF to both readers, as closing a TCP
    socket does; bytes the far end writes afterwards are discarded."""

    async def run():
        transport = MemoryTransport()
        served = asyncio.get_running_loop().create_future()

        async def handler(reader, writer):
            served.set_result((reader, writer))

        listener = await transport.serve(handler, "127.0.0.1", 0)
        reader, writer = await transport.connect(listener.address)
        server_reader, server_writer = await served
        server_writer.close()  # the server hangs up...
        # ...and a client blocked on its own reader wakes, as does
        # anything still reading the server's side.
        with pytest.raises(asyncio.IncompleteReadError):
            await asyncio.wait_for(reader.readexactly(1), 5)
        with pytest.raises(asyncio.IncompleteReadError):
            await asyncio.wait_for(server_reader.readexactly(1), 5)
        writer.write(b"late")  # discarded, like a write into a reset socket
        assert server_reader.at_eof()

    asyncio.run(run())


def test_write_after_close_raises_reset():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            await reader.read()

        listener = await transport.serve(handler, "127.0.0.1", 0)
        _, writer = await transport.connect(listener.address)
        writer.close()
        assert writer.is_closing()
        with pytest.raises(ConnectionResetError):
            writer.write(b"late")

    asyncio.run(run())


def test_transports_are_isolated_namespaces():
    async def run():
        net_a, net_b = MemoryTransport(), MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        listener = await net_a.serve(handler, "127.0.0.1", 0)
        with pytest.raises(ConnectionRefusedError):
            await net_b.connect(listener.address)

    asyncio.run(run())


def test_ephemeral_ports_are_distinct_and_rebindable():
    async def run():
        transport = MemoryTransport()

        async def handler(reader, writer):
            writer.close()

        a = await transport.serve(handler, "127.0.0.1", 0)
        b = await transport.serve(handler, "127.0.0.1", 0)
        assert a.address != b.address
        with pytest.raises(OSError):
            await transport.serve(handler, *a.address)  # explicit clash
        a.close()
        again = await transport.serve(handler, *a.address)  # rebindable
        assert again.address == a.address

    asyncio.run(run())
