"""Syscall-emulation layer (the paper's gem5 "syscall emulation mode").

The RTL flow in the paper is bare metal; GeFIN was modified to run in
syscall-emulation mode so the two flows match (SS III-C).  Both of our
simulators and the reference interpreter share this tiny emulation layer:
output produced here is the *software observation point* used for AVF in
Fig. 3.
"""

SYS_EXIT = 0
SYS_PUTC = 1
SYS_PRINT_UINT = 2
SYS_PRINT_HEX = 3
SYS_WRITE = 4
SYS_PRINT_INT = 5

_MAX_WRITE = 1 << 16


class SyscallError(Exception):
    """An SVC with a bad number or bad arguments (classified as DUE)."""


class SyscallEmulator:
    """Collects program output and the exit event.

    The caller provides register reads and byte-wise memory reads; the
    emulator never touches simulator internals, so faulty values flow
    through it unchanged (a corrupted output *is* the SDC evidence).
    """

    __slots__ = ("output", "exited", "exit_code")

    def __init__(self):
        self.output = bytearray()
        self.exited = False
        self.exit_code = None

    def handle(self, number, read_reg, read_byte):
        """Execute syscall ``number``.

        ``read_reg(i)`` returns architectural register ``i``; ``read_byte(a)``
        returns the byte at address ``a`` as seen by the *executing model*
        (i.e. through its own cache hierarchy).  Returns the value to place
        in r0.
        """
        if number == SYS_EXIT:
            self.exited = True
            self.exit_code = read_reg(0) & 0xFF
            return 0
        if number == SYS_PUTC:
            self.output.append(read_reg(0) & 0xFF)
            return 0
        if number == SYS_PRINT_UINT:
            self.output += b"%d" % (read_reg(0) & 0xFFFFFFFF)
            return 0
        if number == SYS_PRINT_HEX:
            self.output += b"%08x" % (read_reg(0) & 0xFFFFFFFF)
            return 0
        if number == SYS_PRINT_INT:
            value = read_reg(0) & 0xFFFFFFFF
            if value & 0x80000000:
                value -= 0x100000000
            self.output += b"%d" % value
            return 0
        if number == SYS_WRITE:
            addr = read_reg(0) & 0xFFFFFFFF
            length = read_reg(1) & 0xFFFFFFFF
            if length > _MAX_WRITE:
                raise SyscallError(f"write length {length} too large")
            for i in range(length):
                self.output.append(read_byte(addr + i))
            return length
        raise SyscallError(f"unknown syscall {number}")

    def snapshot(self):
        return (bytes(self.output), self.exited, self.exit_code)

    def restore(self, state):
        output, exited, exit_code = state
        self.output = bytearray(output)
        self.exited = exited
        self.exit_code = exit_code
