"""A VMD-style command console.

The paper's interface changes are command-line visible: ``$ mol new
foo.pdb``, ``$ mol addfile /mnt/bar.xtc tag p`` (§3.4).  This console
parses those command strings and drives a :class:`VMDSession`, so the
reproduction can be poked exactly the way the paper describes.

Supported grammar::

    mol new <path>                          -- structure from the VFS/ADA
    mol addfile <path> [tag <t>] [sel "<expr>"]
    mol list
    animate goto <frame> | next | prev
    render <out.pgm> [frame <i>]
    quit / exit

Paths resolve through an attached VFS (so ``/mnt/ada/...`` reads trap
into ADA) or through ADA logical names directly.
"""

from __future__ import annotations

import shlex
from typing import List, Optional

from repro.errors import ConfigurationError, ReproError
from repro.vmd.session import VMDSession

__all__ = ["CommandError", "VMDConsole"]


class CommandError(ReproError):
    """Malformed or unsupported console command."""


class VMDConsole:
    """Parses VMD-style command strings against a session."""

    def __init__(self, session: VMDSession, vfs=None):
        self.session = session
        self.vfs = vfs
        self.animator = None
        self.running = True
        self.log: List[str] = []

    # -- the entry point ---------------------------------------------------

    def execute(self, command: str) -> str:
        """Run one command; returns its textual response."""
        tokens = shlex.split(command)
        if not tokens:
            raise CommandError("empty command")
        head = tokens[0].lower()
        handler = {
            "mol": self._cmd_mol,
            "animate": self._cmd_animate,
            "render": self._cmd_render,
            "quit": self._cmd_quit,
            "exit": self._cmd_quit,
        }.get(head)
        if handler is None:
            raise CommandError(f"unknown command {head!r}")
        response = handler(tokens[1:])
        self.log.append(command)
        return response

    # -- handlers -------------------------------------------------------------

    def _cmd_mol(self, args: List[str]) -> str:
        if not args:
            raise CommandError("mol needs a subcommand (new/addfile/list)")
        sub = args[0].lower()
        if sub == "new":
            if len(args) != 2:
                raise CommandError("usage: mol new <foo.pdb>")
            pdb_text = self._read_text(args[1])
            mol = self.session.mol_new(pdb_text, name=args[1])
            return f"created molecule {mol.mol_id} ({mol.topology.natoms} atoms)"
        if sub == "addfile":
            return self._cmd_addfile(args[1:])
        if sub == "list":
            lines = [
                f"{m.mol_id}: {m.name} atoms={m.topology.natoms} "
                f"frames={m.num_frames}"
                for m in self.session.molecules.values()
            ]
            return "\n".join(lines) if lines else "no molecules"
        raise CommandError(f"unknown mol subcommand {sub!r}")

    def _cmd_addfile(self, args: List[str]) -> str:
        if not args:
            raise CommandError("usage: mol addfile <path> [tag <t>] [sel <expr>]")
        path = args[0]
        tag: Optional[str] = None
        selection: Optional[str] = None
        rest = args[1:]
        while rest:
            key = rest[0].lower()
            if key == "tag" and len(rest) >= 2:
                tag, rest = rest[1], rest[2:]
            elif key == "sel" and len(rest) >= 2:
                selection, rest = rest[1], rest[2:]
            else:
                raise CommandError(f"unexpected addfile argument {rest[0]!r}")
        self.animator = None  # new frames invalidate playback geometry
        if tag is not None:
            logical = self._ada_logical(path)
            result = self.session.mol_addfile_tag(logical, tag)
            return (
                f"loaded tag {tag!r}: {result.trajectory.nframes} frames, "
                f"{result.trajectory.natoms} atoms"
            )
        blob = self._read_bytes(path)
        result = self.session.mol_addfile(blob, selection=selection)
        return (
            f"loaded {result.trajectory.nframes} frames, "
            f"{result.trajectory.natoms} atoms"
            + (f" (sel {selection!r})" if selection else "")
        )

    def _cmd_animate(self, args: List[str]) -> str:
        if not args:
            raise CommandError("usage: animate goto <i> | next | prev")
        animator = self._animator()
        sub = args[0].lower()
        if sub == "goto":
            if len(args) != 2:
                raise CommandError("usage: animate goto <frame>")
            frame = int(args[1])
        elif sub == "next":
            frame = min(animator.current + 1, self.session.top.num_frames - 1)
        elif sub == "prev":
            frame = max(animator.current - 1, 0)
        else:
            raise CommandError(f"unknown animate subcommand {sub!r}")
        geometry = animator.goto(frame)
        return f"frame {frame}: {geometry.nsegments} segments"

    def _cmd_render(self, args: List[str]) -> str:
        if not args:
            raise CommandError("usage: render <out.pgm> [frame <i>]")
        out_path = args[0]
        iframe = self._animator().current
        if len(args) >= 3 and args[1].lower() == "frame":
            iframe = int(args[2])
        from repro.vmd.raster import render_frame_image

        canvas, pgm = render_frame_image(self.session.top, iframe=iframe)
        if self.vfs is not None:
            with self.vfs.open(out_path, "w") as fh:
                fh.write(pgm.encode())
            where = f"VFS {out_path}"
        else:
            with open(out_path, "w") as fh:
                fh.write(pgm)
            where = out_path
        return f"rendered frame {iframe} ({canvas.shape[1]}x{canvas.shape[0]}) -> {where}"

    def _cmd_quit(self, args: List[str]) -> str:
        self.running = False
        return "bye"

    # -- plumbing ----------------------------------------------------------------

    def _animator(self):
        if self.session.top is None or self.session.top.num_frames == 0:
            raise CommandError("no frames loaded")
        if self.animator is None or self.animator.molecule is not self.session.top:
            from repro.vmd.animation import Animator

            self.animator = Animator(self.session.top)
        return self.animator

    def _ada_logical(self, path: str) -> str:
        """Strip a VFS ADA mount prefix to get the logical dataset name."""
        if self.vfs is not None and hasattr(self.vfs, "_under_ada"):
            relative = self.vfs._under_ada(path)
            if relative is not None:
                return relative
        return path.lstrip("/")

    def _read_bytes(self, path: str) -> bytes:
        if self.vfs is not None:
            with self.vfs.open(path, "r") as fh:
                return fh.read()
        raise ConfigurationError(
            f"cannot read {path!r}: no VFS attached to this console"
        )

    def _read_text(self, path: str) -> str:
        return self._read_bytes(path).decode()
