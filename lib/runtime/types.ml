type party_id = int

type round = int

type 'msg envelope = { sender : party_id; payload : 'msg }

type 'msg letter = { src : party_id; dst : party_id; body : 'msg }
