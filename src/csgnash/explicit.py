"""Plain-text explicit-state game format (import/export).

Line-oriented, `#` comments, blank lines ignored.  Idle is written `-` and
probabilities as rationals (`3/4`, `0.75`, `1`).

    player p1 t1 w1            # declaration order fixes player order
    player p2 t2 w2
    init s0
    label s1 sent1 sent2
    s0 (t1,t2) -> 3/4:s1 + 1/4:s2
    s1 (w1,w2) -> 1:s1
    reward r1 action s0 (t1,w2) 1/3
    reward r1 state s0 2

States are declared implicitly by transition lines.  Exporting a game and
re-importing it yields an isomorphic game.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ModelError
from .lang import read_text
from .model import Csg, RewardStructure

__all__ = ["load_explicit", "loads_explicit", "dump_explicit", "dumps_explicit"]


def _rational(token, lineno):
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"line {lineno}: bad probability or value {token!r}")


def _joint(token, lineno):
    if not (token.startswith("(") and token.endswith(")")):
        raise ModelError(f"line {lineno}: expected joint action tuple, got {token!r}")
    return tuple(a.strip() for a in token[1:-1].split(","))


def loads_explicit(text) -> Csg:
    players = []
    alphabets = {}
    initial = []
    labels = {}
    order = []
    seen_states = set()
    trans = {}
    reward_actions = {}
    reward_states = {}

    def touch(state):
        if state not in seen_states:
            seen_states.add(state)
            order.append(state)
            trans.setdefault(state, {})

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head == "player":
            if len(parts) < 2:
                raise ModelError(f"line {lineno}: player needs a name")
            players.append(parts[1])
            alphabets[parts[1]] = parts[2:]
        elif head == "init":
            for s in parts[1:]:
                initial.append(s)
                touch(s)
        elif head == "label":
            if len(parts) < 3:
                raise ModelError(f"line {lineno}: label needs a state and names")
            touch(parts[1])
            labels.setdefault(parts[1], set()).update(parts[2:])
        elif head == "reward":
            if len(parts) < 5 or parts[2] not in ("action", "state"):
                raise ModelError(f"line {lineno}: malformed reward line")
            name, state = parts[1], parts[3]
            end = 4                     # index of the value token
            if parts[2] == "action":
                # the joint action tuple may contain spaces: it ends at the
                # first token closing it
                end = next((i + 1 for i in range(4, len(parts))
                            if parts[i].endswith(")")), len(parts) - 1)
            rest = parts[end:]
            if not rest:
                raise ModelError(f"line {lineno}: reward line has no value")
            if len(rest) > 1:
                raise ModelError(f"line {lineno}: unexpected token {rest[1]!r} "
                                 f"after the reward value")
            value = _rational(rest[0], lineno)
            if parts[2] == "state":
                reward_states.setdefault(name, {})[state] = value
            else:
                joint = _joint(" ".join(parts[4:end]), lineno)
                reward_actions.setdefault(name, {})[(state, joint)] = value
        else:
            if "->" not in parts:
                raise ModelError(f"line {lineno}: unrecognised line {line!r}")
            arrow = parts.index("->")
            if arrow != 2:
                raise ModelError(f"line {lineno}: expected 'state (a,..) -> ...'")
            state = parts[0]
            joint = _joint(parts[1], lineno)
            touch(state)
            dist = {}
            branch = " ".join(parts[arrow + 1:])
            for term in branch.split("+"):
                term = term.strip()
                if ":" not in term:
                    raise ModelError(f"line {lineno}: expected prob:state, got {term!r}")
                prob, succ = (t.strip() for t in term.split(":", 1))
                succ_state = succ
                touch(succ_state)
                dist[succ_state] = dist.get(succ_state, Fraction(0)) + \
                    _rational(prob, lineno)
            if joint in trans[state]:
                raise ModelError(f"line {lineno}: duplicate joint action at {state}")
            trans[state][joint] = dist

    if not players:
        raise ModelError("no player declarations found")
    rewards = {}
    for name in sorted(set(reward_actions) | set(reward_states)):
        rewards[name] = RewardStructure(reward_actions.get(name, {}),
                                        reward_states.get(name, {}))
    return Csg.create(players, alphabets, order, initial, trans, labels, rewards)


def load_explicit(path) -> Csg:
    return loads_explicit(read_text(path))


def _fmt(value):
    return str(Fraction(value))


def dumps_explicit(game: Csg) -> str:
    lines = []
    for p in game.players:
        lines.append(" ".join(["player", p, *sorted(game.alphabets[p])]))
    lines.append(" ".join(["init", *game.initial]))
    for s in game.states:
        if game.labels[s]:
            lines.append(" ".join(["label", s, *sorted(game.labels[s])]))
    for s in game.states:
        for joint, dist in sorted(game.trans[s].items()):
            branch = " + ".join(f"{_fmt(p)}:{t}" for t, p in sorted(dist.items()))
            lines.append(f"{s} ({','.join(joint)}) -> {branch}")
    for name, rs in sorted(game.rewards.items()):
        for (s, joint), val in sorted(rs.action_rewards.items()):
            lines.append(f"reward {name} action {s} ({','.join(joint)}) {_fmt(val)}")
        for s, val in sorted(rs.state_rewards.items()):
            lines.append(f"reward {name} state {s} {_fmt(val)}")
    return "\n".join(lines) + "\n"


def dump_explicit(game: Csg, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_explicit(game))
