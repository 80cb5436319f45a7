int a;
 
　
 


​
﻿
x;y;
　// comment after an ideographic space
/* no final newline */